(** Flat CONGEST programs: the zero-allocation twin of {!Program}.

    {!Program.step} speaks in [(int * Msg.t) list], which allocates a
    cons cell, a tuple and a [Msg.t] record per message per round — the
    dominant cost at n ≥ 10⁵.  A flat program stages messages as
    [(src, tag, bits, word)] int quads in preallocated buffers that the
    flat executor ({!Runtime.run_flat}, or {!Runtime.run_flat_par} for
    the same round loop sharded across domains) reuses across rounds:
    once buffer sizes settle, a round allocates nothing.
    test/test_perf_guard.ml pins that.

    The ports below are exact mirrors of the list-mode algorithms — same
    message bits, same PRNG draw conditions — so [run_flat] on a CSR
    graph produces the same outputs, round count, and traced bit totals
    as [run] of the list version on the equivalent graph (differentially
    tested in test/test_csr.ml).

    Inbox order is ascending sender, ties in emit order; the three
    library algorithms are order-insensitive, and new flat programs
    should be too.  Fault plans and [Broadcast] mode stay on the
    list-mode path (the flat executor rejects both). *)

(** {1 Message tags} *)

val tag_int : int
(** [word] is an integer payload of [bits] bits ([Msg.Int]). *)

val tag_true : int
(** A 1-bit [Msg.Bool true]; [word] ignored. *)

val tag_false : int
(** A 1-bit [Msg.Bool false]; [word] ignored. *)

(** {1 Buffers}

    Concrete so the executor and tests can read them; programs only ever
    index [0 .. i_len-1] and call {!emit}. *)

type inbox = {
  mutable i_buf : int array;
      (** interleaved (src, tag, word) triples: entry [k] at
          [3(i_off+k) .. 3(i_off+k)+2].  Read through
          {!in_src}/{!in_tag}/{!in_word} — the packing is a
          cache-locality contract, not an API. *)
  mutable i_off : int;
      (** window start, in entries: the executor aims one reused view at
          successive slices of its per-round delivery arena.  [0] in a
          standalone inbox. *)
  mutable i_len : int;
}

type emitter = {
  mutable e_dst : int array;
  mutable e_tag : int array;
  mutable e_bits : int array;
  mutable e_word : int array;
  mutable e_len : int;
}

val make_inbox : unit -> inbox
val make_emitter : unit -> emitter

val in_src : inbox -> int -> int
(** Sender of entry [k].  Unchecked: the caller keeps [k < i_len]. *)

val in_tag : inbox -> int -> int
val in_word : inbox -> int -> int

val emit : emitter -> dst:int -> tag:int -> bits:int -> word:int -> unit
(** Stage one message.  Amortized O(1), allocation-free once the buffer
    has grown to the program's working size. *)

val push_inbox : inbox -> src:int -> tag:int -> word:int -> unit
(** Append one (src, tag, word) entry; used by tests to build inboxes by
    hand (the executor delivers via its own counting-sort arena). *)

(** {1 Programs} *)

type 'out node = {
  fstep : round:int -> inbox:inbox -> emitter -> unit;
      (** Read the inbox, stage sends into the emitter.  The emitter is
          already cleared; the inbox is only valid during the call. *)
  fhalted : unit -> bool;
  foutput : unit -> 'out option;
}

type 'out t = { fname : string; fspawn : Program.view -> 'out node }
(** Spawned from the same {!Program.view} (same neighbor arrays, same
    split PRNG streams) as list-mode programs, so a flat port is
    output-identical to its original under any seed. *)

(** {1 Flat ports of the library algorithms} *)

val max_id : rounds:int -> int t
(** Mirror of {!Algo_flood.max_id}. *)

val bfs_distances : root:int -> rounds:int -> int t
(** Mirror of {!Algo_bfs.distances}. *)

val luby_mis : bool t
(** Mirror of {!Algo_luby.mis} (3-phase local-maxima protocol). *)
