(** One-call verification: audit everything the paper asserts at a given
    parameter point.

    This is the library behind [maxis_lb verify]: it runs the code-distance
    check (Theorem 4), Properties 1–3, the claims on sampled promise inputs
    from both promise sides, Corollary 2 / Claim 4 on random index tuples,
    both Definition-4 conditions (condition 1 differentially), and — when
    the formal gap separates — the full Theorem-5 reduction through both
    simulator implementations, cross-checked against each other: the
    trace-metered {!Simulation} on the flat engine ([Flat_par] on the
    pool when it is wider than one, [Flat] otherwise) and the literal
    {!Player_sim} protocol.

    Every check is returned as an [item]; the list is the audit trail. *)

type status =
  | Pass
  | Fail  (** the paper's assertion was checked and is violated *)
  | Inconclusive of { reason : string; lb : int; ub : int }
      (** the budget exhausted before the check could be decided; the
          solver certified [lb <= OPT <= ub], which straddles the claimed
          bound.  Never produced under {!Exec.Budget.unlimited}. *)

type item = {
  name : string;
  status : status;
  detail : string;  (** human-readable evidence, e.g. measured vs bound *)
}

val passed : item -> bool
val failed : item -> bool
val inconclusive : item -> bool

val run :
  ?seed:int ->
  ?samples:int ->
  ?pool:Exec.Pool.t ->
  ?cache:Exec.Cache.t ->
  ?budget:Exec.Budget.t ->
  ?journal:Exec.Journal.t ->
  Params.t ->
  item list
(** [run p] audits the linear family at [p] ([samples] controls the
    randomized checks; default 4).  Raises nothing: failures are reported
    as [Fail] items.

    With [~pool] the exact-solve-heavy claim checks fan out across the
    pool (and the Theorem-5 trace-metered run is sharded across it when
    it is wider than one); with [~cache] the claim results (and
    Property 3's) are read and written through the given {!Exec.Cache}.
    Input generation always consumes the PRNG in the same order, so the
    returned items are identical for every pool width and cache state.

    With a finite [~budget] each claim solve runs under it; a solve that
    exhausts still decides its claim when the certified interval clears
    the bound, and degrades to [Inconclusive] otherwise.  The budget
    fingerprint is folded into the cache keys, so budgeted and exact
    results never answer for each other.  With [~journal] every cached
    check records completion for crash-safe resumption (see
    {!Exec.Journal}). *)

val all_ok : item list -> bool
(** Every item passed ([Inconclusive] is not ok). *)

val exit_code : item list -> int
(** The CLI contract: [0] if all passed, [2] if any check {e failed}
    (a claimed bound is violated), [3] if none failed but at least one is
    [Inconclusive] (budget exhausted). *)

val pp_item : Format.formatter -> item -> unit
