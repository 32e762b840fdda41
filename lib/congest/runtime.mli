(** The synchronous CONGEST executor.

    Executes a {!Program.t} on every node of a network (a weighted graph),
    round by round: all nodes step simultaneously on the messages sent in
    the previous round, and the per-edge bandwidth constraint — at most
    [bandwidth_factor · ⌈log₂ n⌉] bits per directed edge per round — is
    enforced at send time.  A run terminates when all nodes have halted or
    when [max_rounds] is reached.

    With [config.faults] set, every attempted send passes through the
    seeded fault plan at delivery time (drop/duplicate/corrupt/delay) and
    scheduled nodes crash-stop; every injected event is recorded in the
    trace alongside the sends, and the whole faulty execution is exactly
    replayable from [(config, plan)].

    The executor is representation-agnostic: {!run} takes the bitset
    {!Wgraph.Graph.t}, {!run_csr} the compressed {!Wgraph.Csr.t}, and both
    drive one shared round loop over preallocated arena message buffers
    (docs/PERF.md describes the arena lifecycle).  Identical graphs
    produce identical executions — same outputs, same trace digests —
    whichever representation carries them.  {!run_flat} executes the
    allocation-free {!Fastpath} program form for large-n sweeps, and
    {!run_flat_par} runs the same round loop sharded across a domain
    pool. *)

exception Bandwidth_exceeded of { round : int; src : int; dst : int; bits : int; limit : int }
exception Illegal_recipient of { round : int; src : int; dst : int }

exception Non_uniform_broadcast of { round : int; src : int }
(** Raised in [Broadcast] mode when a node sends unequal messages in one
    round. *)

type mode =
  | Unicast  (** the CONGEST model: different messages to different neighbors *)
  | Broadcast
      (** the CONGEST-Broadcast restriction (as in the triangle-detection
          lower bound of Drucker–Kuhn–Oshman discussed in the paper's
          introduction): in each round a node must send the same message to
          every neighbor it addresses, and addressing any neighbor sends to
          all of them. *)

type config = {
  max_rounds : int;
  bandwidth_factor : int;  (** the [c] in [c·⌈log n⌉] bits per edge-round *)
  mode : mode;
  seed : int;  (** seeds the per-node private randomness *)
  faults : Faults.plan option;
      (** adversarial links and crashes; [None] is the fault-free referee *)
}

val default_config : config
(** 10_000 rounds, factor 4, [Unicast], seed 42, no faults. *)

type 'out result = {
  outputs : 'out option array;  (** per node *)
  rounds_executed : int;
  all_halted : bool;  (** crashed nodes count as halted *)
  crashed : bool array;  (** per node: did a fault plan crash it? *)
  trace : Trace.t;
}

(** {1 Structured failure reporting} *)

type failure_reason =
  | Oversend of { dst : int; bits : int; limit : int }
  | Non_neighbor of { dst : int }
  | Broadcast_mismatch

type failure = {
  round : int;
  src : int;
  reason : failure_reason;
  trace_prefix : Trace.t;
      (** everything recorded up to the violation, for post-mortem *)
}

val pp_failure : Format.formatter -> failure -> unit

val bandwidth_bits : config -> n:int -> int
(** The per-(edge, round, direction) bit budget. *)

(** {1 Execution}

    All entry points accept [?trace] to record into a caller-constructed
    trace — a {!Trace.Light} one for large-n sweeps, or one with a
    registered cut for O(1) blackboard accounting.  Default: a fresh
    [Full] trace, preserving the historical behavior (including digest
    values) exactly. *)

val run :
  ?config:config ->
  ?trace:Trace.t ->
  'out Program.t ->
  Wgraph.Graph.t ->
  'out result
(** Raises {!Bandwidth_exceeded} when a node oversends,
    {!Illegal_recipient} when it addresses a non-neighbor, and
    {!Non_uniform_broadcast} when [mode = Broadcast] and a node sends
    unequal messages in one round. *)

val run_csr :
  ?config:config ->
  ?trace:Trace.t ->
  'out Program.t ->
  Wgraph.Csr.t ->
  'out result
(** {!run} on the CSR representation: same executor, same semantics —
    [run_csr p (Csr.of_graph g)] and [run p g] produce identical results
    and traces under any config. *)

val run_checked :
  ?config:config ->
  ?trace:Trace.t ->
  'out Program.t ->
  Wgraph.Graph.t ->
  ('out result, failure) Stdlib.result
(** Like {!run} but no model violation escapes as an exception: the
    [Error] carries round/src/dst context and the trace prefix, so drivers
    can report and continue instead of crashing. *)

val run_csr_checked :
  ?config:config ->
  ?trace:Trace.t ->
  'out Program.t ->
  Wgraph.Csr.t ->
  ('out result, failure) Stdlib.result

val run_flat :
  ?config:config ->
  ?trace:Trace.t ->
  'out Fastpath.t ->
  Wgraph.Csr.t ->
  'out result
(** The zero-allocation hot path: executes a flat program over
    preallocated int message buffers — no cons cells, tuples or [Msg.t]
    records per round (test/test_perf_guard.ml pins the per-round
    allocation ceiling).  Spawn order and PRNG splitting match the
    list-mode executors, so faithful flat ports are output-identical.

    This is the one flat round loop run as a single shard on the calling
    domain: the phases of {!run_flat_par} are direct calls over the
    whole node range, with no pool and no barrier.  Raises
    [Invalid_argument] if [config.faults] is set or
    [config.mode = Broadcast] — adversarial runs keep to the list-mode
    executor. *)

val run_flat_par :
  ?config:config ->
  ?trace:Trace.t ->
  ?alloc_probe:float array ->
  pool:Exec.Pool.t ->
  'out Fastpath.t ->
  Wgraph.Csr.t ->
  'out result
(** The same round loop sharded across the domains of [pool]
    (docs/PERF.md): every per-node and per-destination phase of the
    round runs as an {!Exec.Pool.run_range} barrier over private
    per-shard staging arenas and tallies, merged by a two-pass prefix
    sum into one delivery arena.  Outputs, round counts, recorded traces
    and digests are byte-identical to {!run_flat} — and to {!run_csr} of
    the list-mode original — at every pool width, cold or warm
    (test/test_csr.ml pins this differentially at jobs ∈ {1, 2, 3, 8}).

    Spawning and the O(jobs) prefix seam stay on the calling domain.
    Shard 0 records its sends into the trace inline as it stages them;
    the sends of shards ≥ 1 are recorded on the calling domain after the
    stage barrier, in ascending shard order.  Per-run [congest_*] metric
    totals are merged from per-shard tallies at the end of the run, and
    the [runtime_arena_peak_words] / [graph_resident_words] gauges
    record the memory footprint.

    A shard is never re-run — shard bodies mutate node state and PRNG
    streams in place.  Model violations and exceptions raised by the
    program itself escape exactly as from {!run_flat}, after recording
    the identical trace prefix.

    [alloc_probe] (a test hook; length ≥ pool width) accumulates, per
    shard, the minor words its stage phase allocates each round — the
    per-domain allocation guard reads it.  Raises [Invalid_argument]
    under fault plans, in [Broadcast] mode, or if [alloc_probe] is too
    short. *)

val run_flat_checked :
  ?config:config ->
  ?trace:Trace.t ->
  'out Fastpath.t ->
  Wgraph.Csr.t ->
  ('out result, failure) Stdlib.result
(** {!run_flat} with model violations returned as structured failures,
    like {!run_checked}.  [Invalid_argument] (faults / Broadcast) still
    raises. *)

val run_flat_par_checked :
  ?config:config ->
  ?trace:Trace.t ->
  pool:Exec.Pool.t ->
  'out Fastpath.t ->
  Wgraph.Csr.t ->
  ('out result, failure) Stdlib.result
(** {!run_flat_par} behind the same checked wrapper.  An exception that
    is not a model violation still raises. *)
