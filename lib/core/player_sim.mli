(** The Theorem-5 simulation, executed {e literally}: [t] player objects,
    each simulating only the CONGEST nodes of its own region [Vⁱ], with
    every cross-region message physically routed through a shared
    {!Commcx.Blackboard}.

    {!Simulation} meters cut traffic post hoc from the monolithic runtime's
    trace; this module instead re-implements the proof's protocol — player
    [i] steps its nodes, delivers [Vⁱ]-internal messages privately, and
    writes messages bound for other regions on the blackboard, where the
    destination's owner picks them up next round.  The two implementations
    must agree exactly (same outputs, same cross bits); the test suite pins
    that equivalence, which is strong evidence that the bit accounting
    behind the reproduced Theorem-5 numbers is faithful.

    Bit accounting matches the paper's: each blackboard write declares the
    message's own size ([O(log n)] bits); the edge addressing is part of
    the fixed protocol structure (players enumerate cut edges in a globally
    known order), so it costs no transcript bits.

    The module is self-contained: it shares the node programs and the
    exception types with {!Congest.Runtime}, never its executors or its
    message arena.  Its per-message bookkeeping is O(1): a stamped
    per-recipient bandwidth tally and one ["round-%d"] tag per round.
    Neither is visible to the protocol — the board entries are those a
    per-edge table produces — and each node's inbox is still stably
    sorted by sender. *)

type 'out outcome = {
  outputs : 'out option array;  (** per node, as {!Congest.Runtime.run} *)
  rounds : int;
  all_halted : bool;
  board : Commcx.Blackboard.t;
      (** the transcript: one entry per cross-region message, author = the
          sending player, bits = the message size *)
  internal_bits : int;  (** traffic that stayed inside regions (free) *)
}

val run :
  ?config:Congest.Runtime.config ->
  'out Congest.Program.t ->
  Family.instance ->
  'out outcome
(** Raises the same exceptions as {!Congest.Runtime.run} (bandwidth,
    illegal recipient, broadcast uniformity).  Raises [Invalid_argument]
    when [config.faults] is set: the player protocol is the fault-free
    referee that faulty {!Congest.Runtime} executions are compared
    against, so fault injection here would be circular. *)

val decide_disjointness :
  ?config:Congest.Runtime.config ->
  Family.instance ->
  predicate:Predicate.t ->
  bool option * int outcome
(** The reduction end to end through the player protocol: run the
    universal exact-MaxIS algorithm, classify OPT, return the promise
    pairwise disjointness answer and the full outcome. *)
