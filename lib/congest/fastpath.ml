(* Flat CONGEST programs: the zero-allocation twin of [Program].

   [Program.step] speaks in [(int * Msg.t) list] — every round allocates
   a cons cell, a tuple and a [Msg.t] record per message, which is what
   dominates runtime at n ≥ 10⁵.  A flat program exchanges messages as
   (src, tag, bits, word) int quads staged in preallocated buffers the
   flat executor ([Runtime.run_flat] / [run_flat_par]) reuses across
   rounds, so a settled run allocates nothing per round.  The three
   library algorithms below are exact ports of their list-mode versions
   — same message bits, same PRNG draw conditions — pinned against each
   other by test/test_csr.ml. *)

(* Tag conventions (mirroring the [Msg.payload] cases the ported
   algorithms use). *)
let tag_int = 0
let tag_true = 1
let tag_false = 2

(* Inbox entries are interleaved (src, tag, word) triples in one backing
   array: one packed access touches one cache line where three parallel
   arrays would touch three.  [i_off] lets an inbox be a window into a
   shared delivery arena — the flat executor counting-sorts each
   round's messages into one contiguous buffer and steps every node
   through a single reused view, so there are no per-node inbox
   structures at all.  A standalone inbox (as [make_inbox] returns, and
   as tests use via [push_inbox]) keeps [i_off = 0]. *)
type inbox = {
  mutable i_buf : int array;  (* entry k at 3(i_off+k) .. 3(i_off+k)+2 *)
  mutable i_off : int;
  mutable i_len : int;
}

type emitter = {
  mutable e_dst : int array;
  mutable e_tag : int array;
  mutable e_bits : int array;
  mutable e_word : int array;
  mutable e_len : int;
}

let make_inbox () = { i_buf = [||]; i_off = 0; i_len = 0 }

(* In range whenever [k < i_len]: the producer ([push_inbox] or the
   executor's scatter pass) sized the buffer past the window's end. *)
let[@inline] in_src b k = Array.unsafe_get b.i_buf (3 * (b.i_off + k))
let[@inline] in_tag b k = Array.unsafe_get b.i_buf ((3 * (b.i_off + k)) + 1)
let[@inline] in_word b k = Array.unsafe_get b.i_buf ((3 * (b.i_off + k)) + 2)

let make_emitter () =
  { e_dst = [||]; e_tag = [||]; e_bits = [||]; e_word = [||]; e_len = 0 }

let grow a len =
  let a' = Array.make (max 8 (2 * Array.length a)) 0 in
  Array.blit a 0 a' 0 len;
  a'

(* The only unsafe array accesses in the library live in these two
   staging functions and the flat round loop in [Runtime] that drains
   them: the grow check just above each write puts the index in range by
   construction, and at 10⁷–10⁸ messages per sweep the bounds checks are
   a measurable slice of the whole run. *)

let grow3 a len =
  (* Capacity stays a multiple of 3 (24, 48, 96, ...), so a full buffer
     is detected by [base = length] exactly. *)
  let a' = Array.make (max 24 (2 * Array.length a)) 0 in
  Array.blit a 0 a' 0 len;
  a'

let[@inline] push_inbox b ~src ~tag ~word =
  let base = 3 * (b.i_off + b.i_len) in
  if base = Array.length b.i_buf then b.i_buf <- grow3 b.i_buf base;
  Array.unsafe_set b.i_buf base src;
  Array.unsafe_set b.i_buf (base + 1) tag;
  Array.unsafe_set b.i_buf (base + 2) word;
  b.i_len <- b.i_len + 1

let[@inline] emit e ~dst ~tag ~bits ~word =
  if e.e_len = Array.length e.e_dst then begin
    e.e_dst <- grow e.e_dst e.e_len;
    e.e_tag <- grow e.e_tag e.e_len;
    e.e_bits <- grow e.e_bits e.e_len;
    e.e_word <- grow e.e_word e.e_len
  end;
  Array.unsafe_set e.e_dst e.e_len dst;
  Array.unsafe_set e.e_tag e.e_len tag;
  Array.unsafe_set e.e_bits e.e_len bits;
  Array.unsafe_set e.e_word e.e_len word;
  e.e_len <- e.e_len + 1

type 'out node = {
  fstep : round:int -> inbox:inbox -> emitter -> unit;
  fhalted : unit -> bool;
  foutput : unit -> 'out option;
}

type 'out t = { fname : string; fspawn : Program.view -> 'out node }

(* ------------------------------------------------------------------ *)
(* Flat ports of the library algorithms *)

let max_id ~rounds =
  {
    fname = "max-id-flood";
    fspawn =
      (fun view ->
        let best = ref view.Program.id in
        let changed = ref true in
        let done_ = ref false in
        let n = view.Program.n in
        let width = Msg.id_width ~n in
        let nbrs = view.Program.neighbors in
        let deg = Array.length nbrs in
        {
          fstep =
            (fun ~round ~inbox em ->
              for k = 0 to inbox.i_len - 1 do
                if in_tag inbox k = tag_int then begin
                  let v = in_word inbox k in
                  if v > !best then begin
                    best := v;
                    changed := true
                  end
                end
              done;
              if !changed then
                for k = 0 to deg - 1 do
                  emit em ~dst:nbrs.(k) ~tag:tag_int ~bits:width ~word:!best
                done;
              changed := false;
              if round + 1 >= rounds then done_ := true);
          fhalted = (fun () -> !done_);
          foutput = (fun () -> Some !best);
        });
  }

let bfs_distances ~root ~rounds =
  {
    fname = "bfs-distances";
    fspawn =
      (fun view ->
        let n = view.Program.n in
        let width = Msg.id_width ~n in
        (* -1 encodes "unknown" so no option allocates on the hot path. *)
        let dist = ref (if view.Program.id = root then 0 else -1) in
        let announced = ref false in
        let done_ = ref false in
        let nbrs = view.Program.neighbors in
        let deg = Array.length nbrs in
        {
          fstep =
            (fun ~round ~inbox em ->
              for k = 0 to inbox.i_len - 1 do
                if in_tag inbox k = tag_int then begin
                  let d = in_word inbox k in
                  if !dist < 0 || !dist > d + 1 then dist := d + 1
                end
              done;
              if !dist >= 0 && not !announced then begin
                announced := true;
                let w = min !dist (n - 1) in
                for k = 0 to deg - 1 do
                  emit em ~dst:nbrs.(k) ~tag:tag_int ~bits:width ~word:w
                done
              end;
              if round + 1 >= rounds then done_ := true);
          fhalted = (fun () -> !done_);
          foutput = (fun () -> if !dist < 0 then None else Some !dist);
        });
  }

(* Index of [x] in the sorted row [a], or -1: deactivations and priority
   slots are per-neighbor-index, found by binary search. *)
let find_nbr a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  let res = ref (-1) in
  while !lo < !hi && !res < 0 do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) = x then res := mid
    else if a.(mid) < x then lo := mid + 1
    else hi := mid
  done;
  !res

let luby_mis =
  {
    fname = "luby-mis";
    fspawn =
      (fun view ->
        let nbrs = view.Program.neighbors in
        let deg = Array.length nbrs in
        let width = 2 * Msg.id_width ~n:view.Program.n in
        (* 0 = Active, 1 = In_mis, 2 = Covered — as in Local_maxima. *)
        let status = ref 0 in
        let active = Bytes.make (max deg 1) '\001' in
        let my_prio = ref 0 in
        (* recv_prios, round-stamped so no per-phase clearing. *)
        let prio = Array.make (max deg 1) 0 in
        let prio_round = Array.make (max deg 1) (-1) in
        let halted = ref false in
        let send_all em ~tag ~bits ~word =
          for k = 0 to deg - 1 do
            emit em ~dst:nbrs.(k) ~tag ~bits ~word
          done
        in
        {
          fstep =
            (fun ~round ~inbox em ->
              match round mod 3 with
              | 0 ->
                  for k = 0 to inbox.i_len - 1 do
                    if in_tag inbox k = tag_false then begin
                      let j = find_nbr nbrs (in_src inbox k) in
                      if j >= 0 then Bytes.set active j '\000'
                    end
                  done;
                  if !status = 0 then begin
                    let p = Stdx.Prng.int view.Program.rng (1 lsl width) in
                    my_prio := p;
                    send_all em ~tag:tag_int ~bits:width ~word:p
                  end
              | 1 ->
                  for k = 0 to inbox.i_len - 1 do
                    if in_tag inbox k = tag_int then begin
                      let j = find_nbr nbrs (in_src inbox k) in
                      if j >= 0 && Bytes.get active j = '\001' then begin
                        prio.(j) <- in_word inbox k;
                        prio_round.(j) <- round
                      end
                    end
                  done;
                  if !status = 0 then begin
                    let win = ref true in
                    for j = 0 to deg - 1 do
                      if prio_round.(j) = round then begin
                        let p = prio.(j) and src = nbrs.(j) in
                        (* strict (prio, id) lexicographic comparison *)
                        if not (!my_prio > p || (!my_prio = p && view.Program.id > src))
                        then win := false
                      end
                    done;
                    if !win then begin
                      status := 1;
                      send_all em ~tag:tag_true ~bits:1 ~word:0
                    end
                  end
              | _ ->
                  let neighbor_joined = ref false in
                  for k = 0 to inbox.i_len - 1 do
                    if in_tag inbox k = tag_true then begin
                      let j = find_nbr nbrs (in_src inbox k) in
                      if j >= 0 then Bytes.set active j '\000';
                      neighbor_joined := true
                    end
                  done;
                  if !status = 1 then halted := true
                  else if !status = 0 && !neighbor_joined then begin
                    status := 2;
                    halted := true;
                    send_all em ~tag:tag_false ~bits:1 ~word:0
                  end);
          fhalted = (fun () -> !halted);
          foutput =
            (fun () ->
              match !status with 1 -> Some true | 2 -> Some false | _ -> None);
        });
  }
