module Graph = Wgraph.Graph

(* Facts are flooded with per-edge pipelining: each node keeps an
   append-only log of the facts it knows and a per-neighbor cursor; each
   round it sends each neighbor the next fact that neighbor hasn't been
   sent.  A fact is a triple (kind, a, b): kind 0 = edge {a, b} (a < b),
   kind 1 = weight of node a is b.

   Both programs key a node's fact set on [pack]: kind at bit 3·idw, then
   a (idw bits), then b (2·idw bits).  It is injective on every triple
   the message widths admit, so it stays exact on corrupted facts too: a
   fault flip keeps each field inside its width, though ids can then
   exceed n - 1 and edges can arrive with a > b. *)

let pack ~idw ~kind ~a ~b =
  if a < 0 || a lsr idw <> 0 || b < 0 || b lsr (2 * idw) <> 0 then
    invalid_arg "Algo_gather.pack: fact field too wide";
  (kind lsl (3 * idw)) lor (a lsl (2 * idw)) lor b

(* The log holds each fact's message, built once and resent to every
   neighbor. *)
let gather ~m ~solve =
  {
    Program.name = "gather-topology";
    spawn =
      (fun view ->
        let n = view.Program.n in
        let idw = Msg.id_width ~n in
        let weight_width = 2 * idw in
        let widths = (1, idw, weight_width) in
        let known : (int, unit) Hashtbl.t = Hashtbl.create 64 in
        let log : Msg.t Stdx.Dynvec.t = Stdx.Dynvec.create () in
        let learn kind a b msg =
          let k = pack ~idw ~kind ~a ~b in
          if not (Hashtbl.mem known k) then begin
            Hashtbl.replace known k ();
            Stdx.Dynvec.push log msg
          end
        in
        let learn_own kind a b =
          learn kind a b (Msg.triple_msg ~widths (kind, a, b))
        in
        let id = view.Program.id in
        learn_own 1 id view.Program.weight;
        Array.iter
          (fun nb -> learn_own 0 (min id nb) (max id nb))
          view.Program.neighbors;
        let deg = Array.length view.Program.neighbors in
        let cursor = Array.make deg 0 in
        let complete () = Hashtbl.length known >= n + m in
        let drained () =
          let all = ref true in
          Array.iter (fun c -> if c < Stdx.Dynvec.length log then all := false) cursor;
          !all
        in
        let halted = ref false in
        let result = ref None in
        (* Facts apply in the order they were learned. *)
        let reconstruct () =
          let g = Graph.create n in
          Stdx.Dynvec.iter
            (fun (msg : Msg.t) ->
              match msg.Msg.payload with
              | Msg.Triple (0, u, v) -> Graph.add_edge g u v
              | Msg.Triple (_, v, w) -> Graph.set_weight g v w
              | _ -> assert false)
            log;
          g
        in
        {
          Program.step =
            (fun ~round:_ ~inbox ->
              List.iter
                (fun (_, (msg : Msg.t)) ->
                  match msg.Msg.payload with
                  | Msg.Triple ((0 | 1) as kind, a, b) ->
                      learn kind a b msg
                  | _ -> ())
                inbox;
              let outbox = ref [] in
              Array.iteri
                (fun i nb ->
                  if cursor.(i) < Stdx.Dynvec.length log then begin
                    outbox := (nb, Stdx.Dynvec.get log cursor.(i)) :: !outbox;
                    cursor.(i) <- cursor.(i) + 1
                  end)
                view.Program.neighbors;
              if complete () && drained () then begin
                result := Some (solve (reconstruct ()));
                halted := true
              end;
              !outbox);
          halted = (fun () -> !halted);
          output = (fun () -> !result);
        });
  }

let exact_maxis ~m = gather ~m ~solve:(fun g -> (Mis.Exact.solve g).Mis.Exact.weight)

(* Flat port, for the flat executor at any shard count.  Facts travel as
   one [pack]ed int under [Fastpath.tag_int], with the same 1 + 3·idw bit
   charge as the list-mode [Msg.triple_msg].  Per-round message counts, round counts
   and outputs are order-independent (a node's log grows by the set of
   new facts, and cursors advance one fact per neighbor per round), so
   the simulation report built on this port matches the list-mode one
   exactly.  The internal fact log still allocates — the zero-alloc
   guarantee of the flat runtime covers delivery, not program state. *)

let gather_flat ~m ~solve =
  {
    Fastpath.fname = "gather-topology";
    fspawn =
      (fun view ->
        let n = view.Program.n in
        let idw = Msg.id_width ~n in
        let fact_bits = 1 + (3 * idw) in
        let bshift = 2 * idw in
        let bmask = (1 lsl bshift) - 1 in
        let amask = (1 lsl idw) - 1 in
        let known : (int, unit) Hashtbl.t = Hashtbl.create 64 in
        let log : int Stdx.Dynvec.t = Stdx.Dynvec.create () in
        let learn f =
          if not (Hashtbl.mem known f) then begin
            Hashtbl.replace known f ();
            Stdx.Dynvec.push log f
          end
        in
        learn (pack ~idw ~kind:1 ~a:view.Program.id ~b:view.Program.weight);
        Array.iter
          (fun nb ->
            learn
              (pack ~idw ~kind:0
                 ~a:(min view.Program.id nb)
                 ~b:(max view.Program.id nb)))
          view.Program.neighbors;
        let nbrs = view.Program.neighbors in
        let deg = Array.length nbrs in
        let cursor = Array.make (max deg 1) 0 in
        let complete () = Hashtbl.length known >= n + m in
        let drained () =
          let all = ref true in
          for i = 0 to deg - 1 do
            if cursor.(i) < Stdx.Dynvec.length log then all := false
          done;
          !all
        in
        let halted = ref false in
        let result = ref None in
        let reconstruct () =
          let g = Graph.create n in
          Hashtbl.iter
            (fun f () ->
              let a = (f lsr bshift) land amask and b = f land bmask in
              if f lsr (3 * idw) = 0 then Graph.add_edge g a b
              else Graph.set_weight g a b)
            known;
          g
        in
        {
          Fastpath.fstep =
            (fun ~round:_ ~inbox em ->
              for k = 0 to inbox.Fastpath.i_len - 1 do
                if Fastpath.in_tag inbox k = Fastpath.tag_int then
                  learn (Fastpath.in_word inbox k)
              done;
              for i = 0 to deg - 1 do
                if cursor.(i) < Stdx.Dynvec.length log then begin
                  Fastpath.emit em ~dst:nbrs.(i) ~tag:Fastpath.tag_int
                    ~bits:fact_bits
                    ~word:(Stdx.Dynvec.get log cursor.(i));
                  cursor.(i) <- cursor.(i) + 1
                end
              done;
              if complete () && drained () then begin
                result := Some (solve (reconstruct ()));
                halted := true
              end);
          fhalted = (fun () -> !halted);
          foutput = (fun () -> !result);
        });
  }

let exact_maxis_flat ~m =
  gather_flat ~m ~solve:(fun g -> (Mis.Exact.solve g).Mis.Exact.weight)
