(* Differential battery for the CSR graph core and the large-n engine:
   Csr ≡ Graph property-by-property, exact-solver parity across the
   representations, and run ≡ run_csr ≡ run_flat executor parity. *)

module Graph = Wgraph.Graph
module Csr = Wgraph.Csr
module Build = Wgraph.Build
module Bitset = Stdx.Bitset
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let random_graph seed nn =
  let n = 1 + (nn mod 40) in
  let rng = Prng.create (Hashtbl.hash (seed, nn, "csr")) in
  let g = Build.erdos_renyi rng n 0.3 in
  Build.random_weights rng g 9;
  g

(* ------------------------------------------------------------------ *)
(* Builder semantics *)

let test_builder_basics () =
  let b = Csr.Builder.create ~default_weight:3 4 in
  Csr.Builder.add_edge b 0 1;
  Csr.Builder.add_edge b 1 0;
  (* duplicate *)
  Csr.Builder.add_edge b 0 1;
  Csr.Builder.add_edge b 2 1;
  Csr.Builder.set_weight b 2 7;
  Csr.Builder.set_label b 2 "two";
  let c = Csr.Builder.finish b in
  check_int "n" 4 (Csr.n c);
  check_int "edges deduped" 2 (Csr.edge_count c);
  check "has 0-1" true (Csr.has_edge c 0 1);
  check "symmetric" true (Csr.has_edge c 1 0);
  check "no 0-2" false (Csr.has_edge c 0 2);
  check_int "degree 1" 2 (Csr.degree c 1);
  check_int "degree 3" 0 (Csr.degree c 3);
  check_int "default weight" 3 (Csr.weight c 0);
  check_int "set weight" 7 (Csr.weight c 2);
  Alcotest.(check string) "label set" "two" (Csr.label c 2);
  Alcotest.(check string) "label default" "0" (Csr.label c 0)

let test_builder_errors () =
  let b = Csr.Builder.create 3 in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Csr.Builder.add_edge: self-loop") (fun () ->
      Csr.Builder.add_edge b 1 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Csr.Builder: node 3 out of range [0, 3)") (fun () ->
      Csr.Builder.add_edge b 0 3);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Csr.Builder.set_weight: negative weight") (fun () ->
      Csr.Builder.set_weight b 0 (-1))

let test_builder_snapshot () =
  let b = Csr.Builder.create 3 in
  Csr.Builder.add_edge b 0 1;
  let c1 = Csr.Builder.finish b in
  Csr.Builder.add_edge b 1 2;
  let c2 = Csr.Builder.finish b in
  check_int "snapshot unchanged" 1 (Csr.edge_count c1);
  check_int "later finish sees more" 2 (Csr.edge_count c2)

let test_reweight () =
  let b = Csr.Builder.create 3 in
  Csr.Builder.add_edge b 0 1;
  let c = Csr.Builder.finish b in
  let c' = Csr.reweight c (fun v -> 10 + v) in
  check_int "new weight" 12 (Csr.weight c' 2);
  check_int "original untouched" 1 (Csr.weight c 2);
  check "edges shared" true (Csr.has_edge c' 0 1);
  check "equal ignores nothing: weights differ" false (Csr.equal c c')

(* ------------------------------------------------------------------ *)
(* Csr ≡ Graph differential properties *)

let conversion_matches =
  QCheck.Test.make ~name:"of_graph matches Graph property-by-property"
    ~count:120
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      let c = Csr.of_graph g in
      let n = Graph.n g in
      Csr.n c = n
      && Csr.edge_count c = Graph.edge_count g
      && Csr.max_degree c = Graph.max_degree g
      && Csr.total_weight c = Graph.total_weight g
      && List.for_all
           (fun v ->
             Csr.degree c v = Graph.degree g v
             && Csr.weight c v = Graph.weight g v
             && Csr.label c v = Graph.label g v
             && Csr.neighbors_array c v
                = Bitset.to_array (Graph.neighbors g v)
             && List.for_all
                  (fun u -> u = v || Csr.has_edge c v u = Graph.has_edge g v u)
                  (List.init n Fun.id))
           (List.init n Fun.id))

let round_trip =
  QCheck.Test.make ~name:"to_graph (of_graph g) = g (weights and labels)"
    ~count:120
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      let g' = Csr.to_graph (Csr.of_graph g) in
      Graph.equal g g'
      && List.for_all
           (fun v -> Graph.label g v = Graph.label g' v)
           (List.init (Graph.n g) Fun.id))

let builder_equals_of_graph =
  QCheck.Test.make ~name:"Builder over the edge list = of_graph" ~count:120
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      let b = Csr.Builder.create (Graph.n g) in
      (* insert in reverse with duplicates to exercise sort + dedup *)
      let edges = Graph.edges g in
      List.iter (fun (u, v) -> Csr.Builder.add_edge b v u) (List.rev edges);
      List.iter (fun (u, v) -> Csr.Builder.add_edge b u v) edges;
      for v = 0 to Graph.n g - 1 do
        Csr.Builder.set_weight b v (Graph.weight g v)
      done;
      Csr.equal (Csr.Builder.finish b) (Csr.of_graph g))

let set_weight_of_matches =
  QCheck.Test.make ~name:"set_weight_of matches Graph" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      let c = Csr.of_graph g in
      let rng = Prng.create (Hashtbl.hash (nn, seed)) in
      let s = Bitset.create (Graph.n g) in
      for v = 0 to Graph.n g - 1 do
        if Prng.bool rng then Bitset.add s v
      done;
      Csr.set_weight_of c s = Graph.set_weight_of g s)

(* ------------------------------------------------------------------ *)
(* Exact-solver parity across representations *)

let solver_parity =
  QCheck.Test.make ~name:"Mis.Exact.solve parity on <=14-vertex graphs"
    ~count:80
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let n = 1 + (nn mod 14) in
      let rng = Prng.create (Hashtbl.hash (seed, nn, "mis")) in
      let g = Build.erdos_renyi rng n 0.4 in
      Build.random_weights rng g 7;
      let direct = (Mis.Exact.solve g).Mis.Exact.weight in
      let via_csr =
        (Mis.Exact.solve (Csr.to_graph (Csr.of_graph g))).Mis.Exact.weight
      in
      direct = via_csr)

(* ------------------------------------------------------------------ *)
(* Executor parity: run ≡ run_csr ≡ run_flat *)

let trace_summary t =
  ( Congest.Trace.rounds t,
    Congest.Trace.total_messages t,
    Congest.Trace.total_bits t,
    Congest.Trace.digest t )

let run_all_three (type a) (prog : a Congest.Program.t)
    (fp : a Congest.Fastpath.t) g =
  let c = Csr.of_graph g in
  let r1 = Congest.Runtime.run prog g in
  let r2 = Congest.Runtime.run_csr prog c in
  let r3 = Congest.Runtime.run_flat fp c in
  let same_results (a : a Congest.Runtime.result)
      (b : a Congest.Runtime.result) =
    a.Congest.Runtime.outputs = b.Congest.Runtime.outputs
    && a.Congest.Runtime.rounds_executed = b.Congest.Runtime.rounds_executed
    && a.Congest.Runtime.all_halted = b.Congest.Runtime.all_halted
    && trace_summary a.Congest.Runtime.trace
       = trace_summary b.Congest.Runtime.trace
  in
  same_results r1 r2 && same_results r1 r3

let flood_parity =
  QCheck.Test.make ~name:"flood: run = run_csr = run_flat" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      run_all_three
        (Congest.Algo_flood.max_id ~rounds:12)
        (Congest.Fastpath.max_id ~rounds:12)
        g)

let bfs_parity =
  QCheck.Test.make ~name:"bfs: run = run_csr = run_flat" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      run_all_three
        (Congest.Algo_bfs.distances ~root:0 ~rounds:12)
        (Congest.Fastpath.bfs_distances ~root:0 ~rounds:12)
        g)

let luby_parity =
  QCheck.Test.make ~name:"luby: run = run_csr = run_flat (incl. PRNG draws)"
    ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      run_all_three Congest.Algo_luby.mis Congest.Fastpath.luby_mis g)

(* ------------------------------------------------------------------ *)
(* Flat-engine parity at every shard count: [run_flat] (one shard, no
   pool) and [run_flat_par] at every pool width, cold and warm, Full and
   Light traces, all against the list-mode [run_csr] of the original
   program — an executor that shares no round loop with them. *)

let par_pools =
  lazy (List.map (fun jobs -> Exec.Pool.create ~jobs ()) [ 1; 2; 3; 8 ])

let run_par_matches (type a) (prog : a Congest.Program.t)
    (fp : a Congest.Fastpath.t) g =
  let c = Csr.of_graph g in
  let reference = Congest.Runtime.run_csr prog c in
  let light_digest run =
    let trace = Congest.Trace.create ~mode:Congest.Trace.Light () in
    Congest.Trace.digest (run ~trace).Congest.Runtime.trace
  in
  let ref_light_digest =
    light_digest (fun ~trace -> Congest.Runtime.run_csr ~trace prog c)
  in
  let same (b : a Congest.Runtime.result) =
    reference.Congest.Runtime.outputs = b.Congest.Runtime.outputs
    && reference.Congest.Runtime.rounds_executed
       = b.Congest.Runtime.rounds_executed
    && reference.Congest.Runtime.all_halted = b.Congest.Runtime.all_halted
    && trace_summary reference.Congest.Runtime.trace
       = trace_summary b.Congest.Runtime.trace
  in
  same (Congest.Runtime.run_flat fp c)
  && light_digest (fun ~trace -> Congest.Runtime.run_flat ~trace fp c)
     = ref_light_digest
  && List.for_all
       (fun pool ->
         let cold = Congest.Runtime.run_flat_par ~pool fp c in
         (* Warm: same pool, buffers of the previous run already grown. *)
         let warm = Congest.Runtime.run_flat_par ~pool fp c in
         same cold && same warm
         && light_digest (fun ~trace ->
                Congest.Runtime.run_flat_par ~trace ~pool fp c)
            = ref_light_digest)
       (Lazy.force par_pools)

let flood_par_parity =
  QCheck.Test.make ~name:"flood: run_flat_par = run_flat, jobs in {1,2,3,8}"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      run_par_matches
        (Congest.Algo_flood.max_id ~rounds:12)
        (Congest.Fastpath.max_id ~rounds:12)
        (random_graph seed nn))

let bfs_par_parity =
  QCheck.Test.make ~name:"bfs: run_flat_par = run_flat, jobs in {1,2,3,8}"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      run_par_matches
        (Congest.Algo_bfs.distances ~root:0 ~rounds:12)
        (Congest.Fastpath.bfs_distances ~root:0 ~rounds:12)
        (random_graph seed nn))

let luby_par_parity =
  QCheck.Test.make
    ~name:"luby: run_flat_par = run_flat (incl. PRNG draws), jobs in {1,2,3,8}"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      run_par_matches Congest.Algo_luby.mis Congest.Fastpath.luby_mis
        (random_graph seed nn))

let test_par_rejects () =
  let g = Build.path 4 in
  let c = Csr.of_graph g in
  let fp = Congest.Fastpath.max_id ~rounds:4 in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      (try
         ignore
           (Congest.Runtime.run_flat_par
              ~config:
                {
                  Congest.Runtime.default_config with
                  Congest.Runtime.mode = Congest.Runtime.Broadcast;
                }
              ~pool fp c);
         Alcotest.fail "broadcast accepted"
       with Invalid_argument _ -> ());
      let plan =
        Congest.Faults.plan ~default:(Congest.Faults.link ~drop:0.5 ()) 1
      in
      (try
         ignore
           (Congest.Runtime.run_flat_par
              ~config:
                {
                  Congest.Runtime.default_config with
                  Congest.Runtime.faults = Some plan;
                }
              ~pool fp c);
         Alcotest.fail "faults accepted"
       with Invalid_argument _ -> ());
      try
        ignore
          (Congest.Runtime.run_flat_par ~alloc_probe:[| 0.0 |] ~pool fp c);
        Alcotest.fail "short alloc_probe accepted"
      with Invalid_argument _ -> ())

(* The chunk decomposition is a partition of [lo, hi) in ascending
   order with sizes differing by at most one. *)
let chunk_bounds_partition =
  QCheck.Test.make ~name:"Pool.chunk_bounds partitions the range" ~count:200
    QCheck.(triple small_int small_int small_int)
    (fun (j, l, len) ->
      let jobs = 1 + (j mod 9) in
      let lo = l mod 50 in
      let hi = lo + (len mod 70) in
      let pieces =
        List.init jobs (fun i -> Exec.Pool.chunk_bounds ~jobs ~lo ~hi i)
      in
      let sizes = List.map (fun (a, b) -> b - a) pieces in
      let mn = List.fold_left min max_int sizes
      and mx = List.fold_left max 0 sizes in
      let rec contiguous at = function
        | [] -> at = hi
        | (a, b) :: rest -> a = at && b >= a && contiguous b rest
      in
      contiguous lo pieces && mx - mn <= 1)

let test_flat_rejects () =
  let g = Build.path 4 in
  let c = Csr.of_graph g in
  let fp = Congest.Fastpath.max_id ~rounds:4 in
  (try
     ignore
       (Congest.Runtime.run_flat
          ~config:
            {
              Congest.Runtime.default_config with
              Congest.Runtime.mode = Congest.Runtime.Broadcast;
            }
          fp c);
     Alcotest.fail "broadcast accepted"
   with Invalid_argument _ -> ());
  let plan =
    Congest.Faults.plan ~default:(Congest.Faults.link ~drop:0.5 ()) 1
  in
  try
    ignore
      (Congest.Runtime.run_flat
         ~config:
           { Congest.Runtime.default_config with Congest.Runtime.faults = Some plan }
         fp c);
    Alcotest.fail "faults accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Model violations on the flat executor: without a pool and at every
   pool width it reports the same failure with the same trace prefix,
   pinned in closed form, and a Light prefix agrees with the Full one on
   every streamed aggregate. *)

(* Two rounds of 1-bit traffic on every edge; then, in round 2, node
   [bad] sends [limit - 1] bits to its first neighbor and breaks the
   model.  Nodes below [bad] send 2 bits; nodes above send a full
   [limit]-bit message, which no prefix may count — sequential execution
   never reached them. *)
let bad = 3

let violator violation =
  let open Congest.Fastpath in
  {
    fname = "violator";
    fspawn =
      (fun view ->
        let id = view.Congest.Program.id and n = view.Congest.Program.n in
        let nbrs = view.Congest.Program.neighbors in
        let limit = Congest.Runtime.(bandwidth_bits default_config ~n) in
        let send em dst bits = emit em ~dst ~tag:tag_int ~bits ~word:0 in
        {
          fstep =
            (fun ~round ~inbox:_ em ->
              if round < 2 then Array.iter (fun u -> send em u 1) nbrs
              else if id < bad then send em nbrs.(0) 2
              else if id > bad then send em nbrs.(0) limit
              else begin
                send em nbrs.(0) (limit - 1);
                match violation with
                | `Oversend -> send em nbrs.(0) 2
                | `Non_neighbor -> send em ((id + (n / 2)) mod n) 1
              end);
          fhalted = (fun () -> false);
          foutput = (fun () -> None);
        });
  }

let test_flat_violation violation () =
  let c = Csr.of_graph (Build.cycle 8) in
  let limit = Congest.Runtime.(bandwidth_bits default_config ~n:8) in
  let fp = violator violation in
  let failure_of = function
    | Ok _ -> Alcotest.fail "violation not reported"
    | Error f -> f
  in
  let runs mode =
    let trace () = Congest.Trace.create ~mode () in
    ( "run_flat",
      failure_of (Congest.Runtime.run_flat_checked ~trace:(trace ()) fp c) )
    :: List.filter_map
         (fun pool ->
           let jobs = Exec.Pool.jobs pool in
           if jobs > 3 then None
           else
             Some
               ( Printf.sprintf "run_flat_par jobs=%d" jobs,
                 failure_of
                   (Congest.Runtime.run_flat_par_checked ~trace:(trace ())
                      ~pool fp c) ))
         (Lazy.force par_pools)
  in
  let full = runs Congest.Trace.Full and light = runs Congest.Trace.Light in
  let reference = snd (List.hd full) in
  let open Congest.Runtime in
  check_int "round" 2 reference.round;
  check_int "src" bad reference.src;
  check "reason" true
    (reference.reason
    =
    match violation with
    | `Oversend -> Oversend { dst = 2; bits = limit + 1; limit }
    | `Non_neighbor -> Non_neighbor { dst = bad + 4 });
  let module T = Congest.Trace in
  let ref_tr = reference.trace_prefix in
  (* The prefix in closed form: rounds 0 and 1 put 1 bit on each of the
     16 directed edges, then round 2 holds the 2-bit sends of nodes
     below [bad] and [bad]'s own (limit - 1)-bit one — 36 messages,
     32 + 6 + (limit - 1) bits, 3 rounds. *)
  check_int "prefix messages" 36 (T.total_messages ref_tr);
  check_int "prefix bits" (37 + limit) (T.total_bits ref_tr);
  check_int "prefix rounds" 3 (T.rounds ref_tr);
  check_int "prefix edge max" (limit - 1) (T.max_bits_per_edge_round ref_tr);
  List.iter2
    (fun (name, f) (_, lf) ->
      check (name ^ " failure") true
        (f.round = reference.round && f.src = reference.src
        && f.reason = reference.reason
        && lf.round = reference.round && lf.src = reference.src
        && lf.reason = reference.reason);
      check (name ^ " Full digest") true
        (T.digest f.trace_prefix = T.digest ref_tr);
      let summary t =
        [
          T.total_messages t;
          T.total_bits t;
          T.rounds t;
          T.max_bits_per_edge_round t;
        ]
      in
      Alcotest.(check (list int))
        (name ^ " Light prefix = Full prefix")
        (summary ref_tr) (summary lf.trace_prefix))
    full light

(* ------------------------------------------------------------------ *)
(* Gadget construction parity *)

let test_linear_csr_matches () =
  let p = Maxis_core.Params.figure_params ~players:3 in
  let g, part = Maxis_core.Linear_family.fixed p in
  let c, part' = Maxis_core.Linear_family.fixed_csr p in
  check "fixed_csr = of_graph fixed" true (Csr.equal c (Csr.of_graph g));
  check "partitions equal" true (part = part')

let test_linear_instance_csr_matches () =
  let p = Maxis_core.Params.figure_params ~players:2 in
  let x =
    Commcx.Inputs.gen_promise (Prng.create 7) ~k:(Maxis_core.Params.k p) ~t:2
      ~intersecting:false
  in
  let inst = Maxis_core.Linear_family.instance p x in
  let c, part = Maxis_core.Linear_family.instance_csr p x in
  check "structure" true
    (Csr.equal (Csr.reweight c (fun _ -> 1))
       (Csr.reweight (Csr.of_graph inst.Maxis_core.Family.graph) (fun _ -> 1)));
  check "partition" true (part = inst.Maxis_core.Family.partition);
  let ok = ref true in
  for v = 0 to Csr.n c - 1 do
    if Csr.weight c v <> Graph.weight inst.Maxis_core.Family.graph v then
      ok := false
  done;
  check "weights" true !ok

let test_quadratic_csr_matches () =
  let p = Maxis_core.Params.figure_params ~players:2 in
  let g, part = Maxis_core.Quadratic_family.fixed p in
  let c, part' = Maxis_core.Quadratic_family.fixed_csr p in
  check "fixed_csr = of_graph fixed" true (Csr.equal c (Csr.of_graph g));
  check "partitions equal" true (part = part');
  (* Sharded finish produces the identical CSR at every pool width. *)
  Exec.Pool.with_pool ~jobs:3 (fun pool ->
      let shard ~lo ~hi f = Exec.Pool.run_range pool ~lo ~hi f in
      let c3, _ = Maxis_core.Quadratic_family.fixed_csr ~shard p in
      check "sharded finish equal" true (Csr.equal c c3))

let test_quadratic_instance_csr_matches () =
  let p = Maxis_core.Params.figure_params ~players:2 in
  let x =
    Commcx.Inputs.gen_promise (Prng.create 11)
      ~k:(Maxis_core.Quadratic_family.string_length p)
      ~t:2 ~intersecting:true
  in
  let inst = Maxis_core.Quadratic_family.instance p x in
  let c, part = Maxis_core.Quadratic_family.instance_csr p x in
  check "structure" true
    (Csr.equal (Csr.reweight c (fun _ -> 1))
       (Csr.reweight (Csr.of_graph inst.Maxis_core.Family.graph) (fun _ -> 1)));
  check "partition" true (part = inst.Maxis_core.Family.partition);
  let ok = ref true in
  for v = 0 to Csr.n c - 1 do
    if Csr.weight c v <> Graph.weight inst.Maxis_core.Family.graph v then
      ok := false
  done;
  check "weights" true !ok;
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let shard ~lo ~hi f = Exec.Pool.run_range pool ~lo ~hi f in
      let c2, _ = Maxis_core.Quadratic_family.instance_csr ~shard p x in
      check "sharded instance equal" true (Csr.equal c c2))

(* ------------------------------------------------------------------ *)
(* Closed-form rows: Csr.of_rows *)

(* [of_rows] over explicit adjacency lists, each row pushed one entry at
   a time. *)
let of_lists ?shard ?degree rows =
  let n = Array.length rows in
  let degree = Option.value degree ~default:(fun v -> Array.length rows.(v)) in
  Csr.of_rows ?shard ~weights:(Array.make n 1) n ~degree
    ~fill:(fun v r -> Array.iter (Csr.Row.push r) rows.(v))

(* [f] raises [Invalid_argument] naming the violated check [why]. *)
let rejects name why f =
  let mentions msg =
    let n = String.length why in
    let rec at i = i + n <= String.length msg && (String.sub msg i n = why || at (i + 1)) in
    at 0
  in
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument msg ->
      if not (mentions msg) then Alcotest.failf "%s: wrong rejection %S" name msg

let test_of_rows_rejects () =
  let path = [| [| 1 |]; [| 0; 2 |]; [| 1 |] |] in
  check "path accepted" true
    (Csr.equal (of_lists path) (Csr.of_graph (Build.path 3)));
  rejects "short fill" "shorter than its degree" (fun () ->
      of_lists ~degree:(fun v -> if v = 1 then 3 else Array.length path.(v)) path);
  rejects "long fill" "longer than its degree" (fun () ->
      of_lists ~degree:(fun v -> if v = 1 then 1 else Array.length path.(v)) path);
  rejects "unsorted row" "not ascending" (fun () ->
      of_lists [| [| 1 |]; [| 2; 0 |]; [| 1 |] |]);
  rejects "duplicate" "not ascending" (fun () -> of_lists [| [| 1; 1 |]; [| 0; 0 |] |]);
  rejects "self-loop" "self-loop" (fun () -> of_lists [| [| 0; 1 |]; [| 0 |] |]);
  rejects "out of range" "out of range" (fun () -> of_lists [| [| 1 |]; [| 0; 2 |] |]);
  rejects "negative entry" "out of range" (fun () -> of_lists [| [| -1; 1 |]; [| 0 |] |]);
  rejects "one-sided edge" "one-sided" (fun () ->
      of_lists [| [| 1; 2 |]; [| 0 |]; [||] |]);
  rejects "one-sided edge, other way" "one-sided" (fun () ->
      of_lists [| [| 1 |]; [| 0 |]; [| 0 |] |]);
  rejects "range over self" "self-loop" (fun () ->
      Csr.of_rows ~weights:[| 1; 1; 1 |] 3
        ~degree:(fun _ -> 2)
        ~fill:(fun v r -> if v = 0 then Csr.Row.push_range r 0 2));
  rejects "negative weight" "negative weight" (fun () ->
      Csr.of_rows ~weights:[| -1 |] 1 ~degree:(fun _ -> 0) ~fill:(fun _ _ -> ()));
  rejects "shard skipping rows" "never filled" (fun () ->
      of_lists ~shard:(fun ~lo ~hi f -> f lo (hi - 1)) path)

exception Fill_failed of int

let test_of_rows_shard_raises () =
  let rows = Array.init 12 (fun v -> [| (v + 1) mod 12; (v + 11) mod 12 |]) in
  Array.iter (Array.sort compare) rows;
  List.iter
    (fun pool ->
      let shard ~lo ~hi f = Exec.Pool.run_range pool ~lo ~hi f in
      match
        Csr.of_rows ~shard ~weights:(Array.make 12 1) 12
          ~degree:(fun v -> Array.length rows.(v))
          ~fill:(fun v r ->
            if v = 9 then raise (Fill_failed v);
            Array.iter (Csr.Row.push r) rows.(v))
      with
      | _ -> Alcotest.fail "fill exception swallowed"
      | exception Fill_failed 9 -> ())
    (Lazy.force par_pools)

(* Random graphs through [of_rows]: equal to [of_graph], and identical at
   shard widths 1, 2 and 3.  Rows alternate single pushes with maximal
   [push_range] runs. *)
let of_rows_matches =
  QCheck.Test.make ~name:"of_rows = of_graph at widths 1-3" ~count:80
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      let o = Csr.of_graph g in
      let n = Csr.n o in
      let fill v r =
        let row = Csr.neighbors_array o v in
        let i = ref 0 in
        while !i < Array.length row do
          let j = ref (!i + 1) in
          while !j < Array.length row && row.(!j) = row.(!j - 1) + 1 do
            incr j
          done;
          if !i mod 2 = 0 then Csr.Row.push_range r row.(!i) (row.(!j - 1) + 1)
          else for x = !i to !j - 1 do Csr.Row.push r row.(x) done;
          i := !j
        done
      in
      let build ?shard () =
        Csr.of_rows ?shard ~weights:(Array.init n (Csr.weight o)) n
          ~degree:(Csr.degree o) ~fill
      in
      let seq = build () in
      Csr.equal seq o
      && List.for_all
           (fun pool ->
             Exec.Pool.jobs pool > 3
             || Csr.equal seq
                  (build ~shard:(fun ~lo ~hi f -> Exec.Pool.run_range pool ~lo ~hi f) ()))
           (Lazy.force par_pools))

(* ------------------------------------------------------------------ *)
(* Gadget parity against the dense oracle at a grid of points *)

module LF = Maxis_core.Linear_family
module QF = Maxis_core.Quadratic_family
module Family = Maxis_core.Family

(* Promise inputs at any [k ≥ 1]: every index goes to at most one player,
   plus (intersecting) one index shared by all. *)
let promise_inputs seed ~k ~t ~intersecting =
  let rng = Prng.create seed in
  let owner = Array.init k (fun _ -> Prng.int rng (t + 1)) in
  let common = if intersecting then Prng.int rng k else -1 in
  Commcx.Inputs.of_bit_lists ~k
    (List.init t (fun i ->
         List.filter (fun j -> j = common || owner.(j) = i) (List.init k Fun.id)))

(* The CSR instance equals [Csr.of_graph] of the bitset instance in
   structure, weights and partition, unsharded and at jobs 1, 2 and 3. *)
let check_parity name (inst : Family.instance) build =
  let o = Csr.of_graph inst.Family.graph in
  let n = Csr.n o in
  let unweighted c = Csr.reweight c (fun _ -> 1) in
  let weights c = Array.init (Csr.n c) (Csr.weight c) in
  let c, part = build None in
  check (name ^ " structure") true (Csr.n c = n && Csr.equal (unweighted c) (unweighted o));
  check (name ^ " weights") true (weights c = weights o);
  check (name ^ " partition") true (part = inst.Family.partition);
  List.iter
    (fun pool ->
      if Exec.Pool.jobs pool <= 3 then begin
        let shard ~lo ~hi f = Exec.Pool.run_range pool ~lo ~hi f in
        let c', part' = build (Some shard) in
        check
          (Printf.sprintf "%s jobs=%d" name (Exec.Pool.jobs pool))
          true
          (Csr.equal c c' && part = part')
      end)
    (Lazy.force par_pools)

let linear_parity p ~intersecting =
  let t = p.Maxis_core.Params.players in
  let x = promise_inputs (Hashtbl.hash (t, "lin")) ~k:(Maxis_core.Params.k p) ~t ~intersecting in
  check_parity
    (Format.asprintf "linear %a %b" Maxis_core.Params.pp p intersecting)
    (LF.instance p x)
    (fun shard -> LF.instance_csr ?shard p x)

let quadratic_parity p ~intersecting =
  let t = p.Maxis_core.Params.players in
  let x = promise_inputs (Hashtbl.hash (t, "quad")) ~k:(QF.string_length p) ~t ~intersecting in
  check_parity
    (Format.asprintf "quadratic %a %b" Maxis_core.Params.pp p intersecting)
    (QF.instance p x)
    (fun shard -> QF.instance_csr ?shard p x)

let test_linear_parity_grid () =
  List.iter
    (fun ell ->
      List.iter
        (fun players ->
          let p = Maxis_core.Params.make ~alpha:1 ~ell ~players in
          linear_parity p ~intersecting:true;
          linear_parity p ~intersecting:false;
          let g, part = LF.fixed p and c, part' = LF.fixed_csr p in
          check "linear fixed_csr" true (Csr.equal c (Csr.of_graph g) && part = part'))
        [ 2; 3; 4 ])
    [ 2; 3; 4; 6 ]

let test_quadratic_parity_grid () =
  List.iter
    (fun ell ->
      List.iter
        (fun players ->
          let p = Maxis_core.Params.make ~alpha:1 ~ell ~players in
          quadratic_parity p ~intersecting:true;
          quadratic_parity p ~intersecting:false;
          let g, part = QF.fixed p and c, part' = QF.fixed_csr p in
          check "quadratic fixed_csr" true (Csr.equal c (Csr.of_graph g) && part = part'))
        [ 2; 3 ])
    [ 2; 3; 4 ]

(* The largest players = 2 point with at most 5·10³ nodes, per family. *)
let gadget_dense nodes =
  let rec grow ell =
    let p = Maxis_core.Params.make ~alpha:1 ~ell:(ell + 1) ~players:2 in
    if nodes p > 5_000 then Maxis_core.Params.make ~alpha:1 ~ell ~players:2
    else grow (ell + 1)
  in
  grow 2

let test_gadget_dense_parity () =
  let lp = gadget_dense LF.n_nodes and qp = gadget_dense QF.n_nodes in
  List.iter
    (fun intersecting ->
      linear_parity lp ~intersecting;
      quadratic_parity qp ~intersecting)
    [ true; false ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "csr"
    [
      ( "builder",
        [
          Alcotest.test_case "basics" `Quick test_builder_basics;
          Alcotest.test_case "errors" `Quick test_builder_errors;
          Alcotest.test_case "snapshot" `Quick test_builder_snapshot;
          Alcotest.test_case "reweight" `Quick test_reweight;
        ] );
      qsuite "differential"
        [
          conversion_matches;
          round_trip;
          builder_equals_of_graph;
          set_weight_of_matches;
          solver_parity;
        ];
      qsuite "executors" [ flood_parity; bfs_parity; luby_parity ];
      qsuite "executors-par"
        [
          flood_par_parity;
          bfs_par_parity;
          luby_par_parity;
          chunk_bounds_partition;
        ];
      ( "executors-edge",
        [
          Alcotest.test_case "run_flat rejects" `Quick test_flat_rejects;
          Alcotest.test_case "run_flat_par rejects" `Quick test_par_rejects;
          Alcotest.test_case "oversend prefix" `Quick
            (test_flat_violation `Oversend);
          Alcotest.test_case "non-neighbor prefix" `Quick
            (test_flat_violation `Non_neighbor);
        ] );
      ( "gadgets",
        [
          Alcotest.test_case "fixed_csr" `Quick test_linear_csr_matches;
          Alcotest.test_case "instance_csr" `Quick
            test_linear_instance_csr_matches;
          Alcotest.test_case "quadratic fixed_csr" `Quick
            test_quadratic_csr_matches;
          Alcotest.test_case "quadratic instance_csr" `Quick
            test_quadratic_instance_csr_matches;
        ] );
      ( "of_rows",
        [
          Alcotest.test_case "rejects malformed rows" `Quick test_of_rows_rejects;
          Alcotest.test_case "sharded fill raises" `Quick test_of_rows_shard_raises;
          QCheck_alcotest.to_alcotest of_rows_matches;
        ] );
      ( "gadget-parity",
        [
          Alcotest.test_case "linear grid" `Quick test_linear_parity_grid;
          Alcotest.test_case "quadratic grid" `Quick test_quadratic_parity_grid;
          Alcotest.test_case "gadget-dense point" `Quick test_gadget_dense_parity;
        ] );
    ]
