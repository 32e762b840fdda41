(** Deterministic fixed-size domain worker pool.

    The execution engine behind every fan-out in the repository: parameter
    sweeps, per-trial exact MaxIS solves, the parallel branch-and-bound
    split, the verification audit, the sharded round engine.  The design
    goal is a hard determinism contract, because the bench harness
    promises byte-identical tables for any [--jobs] setting:

    - {!map} assigns every item a stable index and reassembles results in
      input order, so the caller observes exactly the sequential result no
      matter how tasks were scheduled across domains;
    - when a task raises, {!map} re-raises the exception of the
      {e lowest-index} failing task — the same exception a sequential loop
      would have surfaced first (later tasks may still have run; their
      results are discarded);
    - a pool of [jobs = 1] spawns no domains at all and degrades to a plain
      loop, so the default configuration is exactly the pre-pool code path.

    Pools hold [jobs - 1] worker domains blocked on a condition variable;
    the calling domain participates in every batch, so [jobs] is the true
    parallel width.  Tasks must not themselves call {!map} or {!run_range}
    on the same pool (that raises [Invalid_argument] rather than
    deadlocking).  A task that never returns blocks its batch: the pool
    runs trusted, terminating code and does not supervise it. *)

type t

val create : jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs >= 1], else
    [Invalid_argument]).  The pool registers itself in a process-wide exit
    registry (one [at_exit] hook total), so forgetting {!shutdown} never
    leaves blocked domains behind.  A worker that cannot be spawned (after
    {!Error.with_retries}-bounded retries) is left out: the pool runs
    narrower and the calling domain executes the slots nobody else
    claims, so results and chunk geometry are unchanged. *)

val jobs : t -> int
(** The parallel width the pool was created with. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] is [Array.map f xs], computed by up to [jobs pool]
    domains.  Results are in input order; see the determinism contract
    above for exceptions.  Raises [Invalid_argument] on a nested or
    concurrent batch over the same pool, or (at any width, including 1)
    after {!shutdown}. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}; same contract. *)

val run_range : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [run_range pool ~lo ~hi f] is the reusable barrier primitive behind
    the domain-sharded flat executor (docs/PERF.md).  The interval
    [\[lo, hi)] is split into exactly [jobs pool] contiguous chunks (see
    {!chunk_bounds}); every pool slot — the persistent workers plus the
    calling domain — executes [f clo chi] for one chunk, and the call
    returns only once all chunks have published.  Empty chunks still
    invoke [f clo clo], so per-shard state is reset at every width.

    The barrier reuses one preallocated batch record per pool: a settled
    call allocates no closures and no per-call arrays, which is what
    keeps the parallel round loop at zero minor words per round.

    Exception contract: a chunk body that raises records it; after the
    barrier the {e lowest-index} failure is re-raised (ascending chunks =
    ascending node ranges, so this is the exception ascending sequential
    execution would have raised first).  A chunk is never re-run.

    Raises [Invalid_argument] if [hi < lo], on a nested or concurrent
    batch over the same pool, or after {!shutdown}. *)

val chunk_bounds : jobs:int -> lo:int -> hi:int -> int -> int * int
(** [chunk_bounds ~jobs ~lo ~hi i] is the half-open interval
    [(clo, chi)] that chunk [i] of a [jobs]-way {!run_range} over
    [\[lo, hi)] covers: sizes differ by at most one and concatenate to
    the whole range in ascending order.  Pure — callers use it to map a
    chunk's [clo] back to its shard index.  Raises [Invalid_argument]
    unless [0 <= i < jobs]. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; a [jobs = 1] pool is
    a no-op.  Subsequent {!map} and {!run_range} calls raise. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down on any
    exit path. *)

val default_jobs : unit -> int
(** Parallel width requested by the environment: [MAXIS_JOBS] as a
    positive integer, ["auto"] or ["0"] for
    [Domain.recommended_domain_count ()], anything else (or unset) is [1].
    The bench harness sizes its shared pool with this. *)
