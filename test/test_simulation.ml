(* Tests for the Theorem 5 simulation: any CONGEST run's cross-partition
   traffic is bounded by rounds x cut x bandwidth, and the end-to-end
   reduction decides promise pairwise disjointness. *)

module P = Maxis_core.Params
module LF = Maxis_core.Linear_family
module Family = Maxis_core.Family
module Simulation = Maxis_core.Simulation
module Inputs = Commcx.Inputs
module Runtime = Congest.Runtime
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p2 = P.make ~alpha:1 ~ell:4 ~players:2
let p3 = P.make ~alpha:1 ~ell:4 ~players:3
let p3_small = P.make ~alpha:1 ~ell:3 ~players:3

let instance seed p ~intersecting =
  let rng = Prng.create seed in
  let x = Inputs.gen_promise rng ~k:(P.k p) ~t:p.P.players ~intersecting in
  (LF.instance p x, x)

(* ------------------------------------------------------------------ *)
(* Generic simulation bounds *)

let test_simulate_flood_within_bound () =
  let inst, _ = instance 3 p3 ~intersecting:true in
  let n = Wgraph.Graph.n inst.Family.graph in
  let _, report = Simulation.simulate (Congest.Algo_flood.max_id ~rounds:n) inst in
  check "within" true report.Simulation.within_bound;
  check_int "cut matches family" (LF.expected_cut_size p3) report.Simulation.cut_size;
  check "some cut traffic" true (report.Simulation.blackboard_bits > 0);
  check "cut traffic < total" true
    (report.Simulation.blackboard_bits <= report.Simulation.total_bits)

let test_simulate_luby_within_bound () =
  let inst, _ = instance 5 p3 ~intersecting:false in
  let _, report = Simulation.simulate Congest.Algo_luby.mis inst in
  check "within" true report.Simulation.within_bound

let test_simulate_gather_within_bound () =
  let inst, _ = instance 7 p2 ~intersecting:true in
  let m = Wgraph.Graph.edge_count inst.Family.graph in
  let result, report =
    Simulation.simulate (Congest.Algo_gather.exact_maxis ~m) inst
  in
  check "halted" true result.Runtime.all_halted;
  check "within" true report.Simulation.within_bound;
  (* gathering everything must push many bits across the cut *)
  check "heavy cut traffic" true (report.Simulation.blackboard_bits > 1000)

let test_report_bound_formula () =
  let inst, _ = instance 11 p2 ~intersecting:false in
  let _, report = Simulation.simulate (Congest.Algo_flood.max_id ~rounds:5) inst in
  check_int "bound = rounds * 2cut * B"
    (report.Simulation.rounds * 2 * report.Simulation.cut_size
   * report.Simulation.bandwidth)
    report.Simulation.bound_bits

(* ------------------------------------------------------------------ *)
(* End-to-end reduction: CONGEST algorithm decides disjointness *)

let test_decide_disjointness_both_sides () =
  List.iter
    (fun intersecting ->
      let inst, x = instance 13 p3 ~intersecting in
      let d =
        Simulation.decide_disjointness inst ~predicate:(LF.predicate p3)
      in
      let expected = Commcx.Functions.promise_pairwise_disjointness x in
      Alcotest.(check (option bool))
        (Printf.sprintf "answer (intersecting=%b)" intersecting)
        (Some expected) d.Simulation.answer;
      check "within bound" true d.Simulation.report.Simulation.within_bound)
    [ true; false ]

let test_decide_disjointness_exhaustive_t2_singletons () =
  (* Full truth table over singleton inputs at t=2. *)
  let p = p2 in
  for a = 0 to P.k p - 1 do
    for b = 0 to min 2 (P.k p - 1) do
      let x = Inputs.of_bit_lists ~k:(P.k p) [ [ a ]; [ b ] ] in
      let inst = LF.instance p x in
      let d = Simulation.decide_disjointness inst ~predicate:(LF.predicate p) in
      Alcotest.(check (option bool))
        (Printf.sprintf "a=%d b=%d" a b)
        (Some (a <> b)) d.Simulation.answer
    done
  done

let test_decide_raises_when_truncated () =
  let inst, _ = instance 17 p2 ~intersecting:true in
  let config = { Runtime.default_config with Runtime.max_rounds = 3 } in
  check "raises" true
    (try
       ignore
         (Simulation.decide_disjointness ~config inst ~predicate:(LF.predicate p2));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Streamed metering: every report field read from the registered-cut
   accumulators equals the value folded from a Full, unregistered trace
   of the same run, on every engine. *)

module Trace = Congest.Trace

(* The report as the historical [report_of] computed it: folded over the
   send/fault log of a trace that knows nothing of the partition. *)
let folded_report ~config ~algo (inst : Family.instance)
    (result : _ Runtime.result) =
  let tr = result.Runtime.trace in
  check "reference trace is Full" true (Trace.mode tr = Trace.Full);
  check "reference trace has no cut" true (Trace.registered_cut tr = None);
  let part = inst.Family.partition in
  let n = Wgraph.Graph.n inst.Family.graph in
  let rounds = result.Runtime.rounds_executed in
  let cut_size = Family.cut_size inst in
  let bandwidth = Runtime.bandwidth_bits config ~n in
  let bits = Trace.cut_bits tr part in
  let bound_bits = rounds * 2 * cut_size * bandwidth in
  {
    Simulation.algorithm = algo;
    n;
    rounds;
    cut_size;
    bandwidth;
    blackboard_bits = bits;
    blackboard_writes = Trace.cut_messages tr part;
    blackboard_bits_dropped = Trace.cut_bits_dropped tr part;
    blackboard_bits_delivered = Trace.cut_bits_delivered tr part;
    bound_bits;
    within_bound = bits <= bound_bits;
    total_bits = Trace.total_bits tr;
    faults_injected = Trace.total_faults tr;
  }

let pp_report ppf (r : Simulation.report) =
  Format.fprintf ppf
    "%s n=%d rounds=%d cut=%d B=%d bits=%d writes=%d dropped=%d \
     delivered=%d bound=%d within=%b total=%d faults=%d"
    r.Simulation.algorithm r.n r.rounds r.cut_size r.bandwidth
    r.blackboard_bits r.blackboard_writes r.blackboard_bits_dropped
    r.blackboard_bits_delivered r.bound_bits r.within_bound r.total_bits
    r.faults_injected

let report_t = Alcotest.testable pp_report ( = )

let ok = function
  | Ok x -> x
  | Error f -> Alcotest.failf "model violation: %a" Runtime.pp_failure f

(* The decision's run, driven through [Runtime.*_checked] with the
   default trace. *)
let reference_run ~config engine (inst : Family.instance) :
    string * int Runtime.result =
  let g = inst.Family.graph in
  let m = Wgraph.Graph.edge_count g in
  match engine with
  | Simulation.List_mode ->
      let program = Congest.Algo_gather.exact_maxis ~m in
      (program.Congest.Program.name, ok (Runtime.run_checked ~config program g))
  | Simulation.Flat | Simulation.Flat_par _ ->
      let fp = Congest.Algo_gather.exact_maxis_flat ~m in
      let c = Wgraph.Csr.of_graph g in
      ( fp.Congest.Fastpath.fname,
        ok
          (match engine with
          | Simulation.Flat_par pool ->
              Runtime.run_flat_par_checked ~config ~pool fp c
          | _ -> Runtime.run_flat_checked ~config fp c) )

(* The report is predicate-independent, and the small instances below
   sit under the parameters where the families' gaps separate. *)
let report_only = Maxis_core.Predicate.make ~name:"report only" ~high:1 ~low:0

(* The decision's report, and the per-player bits it meters, equal the
   values folded from the reference run. *)
let check_streamed_report ?(config = Runtime.default_config) name engine inst =
  let algo, plain = reference_run ~config engine inst in
  let per_player =
    Trace.cut_bits_by_side plain.Runtime.trace inst.Family.partition
  in
  let metered () =
    Array.mapi
      (fun p _ ->
        Obs.Metrics.value
          (Obs.Metrics.counter
             ~labels:[ ("algo", algo); ("player", string_of_int p) ]
             "blackboard_player_bits_total"))
      per_player
  in
  let before = metered () in
  match
    Simulation.decide_disjointness_checked ~config ~engine inst
      ~predicate:report_only
  with
  | Error e -> Alcotest.failf "%s: %a" name Simulation.pp_error e
  | Ok d ->
      Alcotest.check report_t name
        (folded_report ~config ~algo inst plain)
        d.Simulation.report;
      Alcotest.(check (array int))
        (name ^ " per-player bits") per_player
        (Array.map2 ( - ) (metered ()) before);
      d.Simulation.report

let test_streamed_report_every_engine () =
  let linear, _ = instance 41 p3_small ~intersecting:true in
  let pq = P.figure_params ~players:2 in
  let quadratic =
    Maxis_core.Quadratic_family.instance pq
      (Inputs.gen_promise (Prng.create 43)
         ~k:(Maxis_core.Quadratic_family.string_length pq)
         ~t:2 ~intersecting:false)
  in
  Exec.Pool.with_pool ~jobs:1 (fun pool1 ->
      Exec.Pool.with_pool ~jobs:2 (fun pool2 ->
          List.iter
            (fun (family, inst) ->
              List.iter
                (fun (ename, engine) ->
                  ignore
                    (check_streamed_report (family ^ " " ^ ename) engine inst))
                [
                  ("list", Simulation.List_mode);
                  ("flat", Simulation.Flat);
                  ("flat-par jobs=1", Simulation.Flat_par pool1);
                  ("flat-par jobs=2", Simulation.Flat_par pool2);
                ])
            [ ("linear", linear); ("quadratic", quadratic) ]))

let fault_config =
  let plan =
    Congest.Faults.plan
      ~default:(Congest.Faults.link ~drop:0.01 ~duplicate:0.01 ())
      47
  in
  { Runtime.default_config with Runtime.faults = Some plan }

let test_streamed_report_under_faults () =
  let inst, _ = instance 53 p3_small ~intersecting:false in
  let r =
    check_streamed_report ~config:fault_config "list + drop/duplicate"
      Simulation.List_mode inst
  in
  check "faults injected" true (r.Simulation.faults_injected > 0);
  check "cut bits dropped" true (r.Simulation.blackboard_bits_dropped > 0);
  check "delivered differs from attempted" true
    (r.Simulation.blackboard_bits_delivered <> r.Simulation.blackboard_bits)

(* [simulate] returns its trace, so that trace must still answer the
   log-shaped queries with the values a default trace gives. *)
let test_simulate_keeps_send_log () =
  let inst, _ = instance 59 p3 ~intersecting:true in
  let g = inst.Family.graph in
  let program = Congest.Algo_luby.mis in
  let result, report = Simulation.simulate ~config:fault_config program inst in
  let plain = Runtime.run ~config:fault_config program g in
  let tr = result.Runtime.trace and plain_tr = plain.Runtime.trace in
  check "send log" true (Trace.send_events tr = Trace.send_events plain_tr);
  check "fault log" true (Trace.fault_events tr = Trace.fault_events plain_tr);
  check "digest" true (Trace.digest tr = Trace.digest plain_tr);
  let e = (Trace.send_events plain_tr).(0) in
  check_int "bits on edge"
    (Trace.bits_on_edge plain_tr ~src:e.Trace.src ~dst:e.Trace.dst)
    (Trace.bits_on_edge tr ~src:e.Trace.src ~dst:e.Trace.dst);
  Alcotest.check report_t "report"
    (folded_report ~config:fault_config ~algo:program.Congest.Program.name
       inst plain)
    report

(* ------------------------------------------------------------------ *)
(* The key asymptotic comparison: blackboard cost vs string length *)

let test_blackboard_bits_exceed_cc_bound () =
  (* Theorem 5's punchline run backwards: since the CC of promise
     disjointness is ~ k/(t log t) bits, any correct simulation must have
     cost at least that.  Our measured T * cut * log n is far above it on
     these tiny instances — consistency, not tightness. *)
  let inst, _ = instance 19 p3 ~intersecting:false in
  let m = Wgraph.Graph.edge_count inst.Family.graph in
  let _, report = Simulation.simulate (Congest.Algo_gather.exact_maxis ~m) inst in
  let cc =
    Commcx.Cc_bounds.eval_bits Commcx.Cc_bounds.promise_pairwise_disjointness
      ~k:(P.k p3) ~t:3
  in
  check "measured >= information bound" true
    (float_of_int report.Simulation.blackboard_bits >= cc)

let test_simulation_on_quadratic_instance () =
  (* Theorem 5 holds for the Section-5 family too: same metering, cut
     unchanged by input edges. *)
  let p = P.make ~alpha:1 ~ell:3 ~players:2 in
  let rng = Prng.create 37 in
  let x =
    Inputs.gen_promise rng
      ~k:(Maxis_core.Quadratic_family.string_length p)
      ~t:2 ~intersecting:true
  in
  let inst = Maxis_core.Quadratic_family.instance p x in
  let m = Wgraph.Graph.edge_count inst.Family.graph in
  List.iter
    (fun run ->
      let report = run () in
      check "within" true report.Simulation.within_bound;
      Alcotest.(check int) "cut"
        (Maxis_core.Quadratic_family.expected_cut_size p)
        report.Simulation.cut_size)
    [
      (fun () -> snd (Simulation.simulate Congest.Algo_luby.mis inst));
      (fun () ->
        snd (Simulation.simulate (Congest.Algo_gather.exact_maxis ~m) inst));
    ]

(* ------------------------------------------------------------------ *)
(* Player_sim: the literal t-player protocol must replay the monolithic
   runtime exactly. *)

module Player_sim = Maxis_core.Player_sim

let test_player_sim_matches_runtime () =
  let inst, _ = instance 23 p3 ~intersecting:true in
  let g = inst.Family.graph in
  let n = Wgraph.Graph.n g in
  let m = Wgraph.Graph.edge_count g in
  let check_program : type o. o Congest.Program.t -> unit =
   fun program ->
    let mono = Runtime.run program g in
    let multi = Player_sim.run program inst in
    check (program.Congest.Program.name ^ " outputs equal") true
      (mono.Runtime.outputs = multi.Player_sim.outputs);
    check_int
      (program.Congest.Program.name ^ " rounds equal")
      mono.Runtime.rounds_executed multi.Player_sim.rounds;
    check_int
      (program.Congest.Program.name ^ " board bits = trace cut bits")
      (Congest.Trace.cut_bits mono.Runtime.trace inst.Family.partition)
      (Commcx.Blackboard.bits_written multi.Player_sim.board);
    check_int
      (program.Congest.Program.name ^ " internal + cross = total")
      (Congest.Trace.total_bits mono.Runtime.trace)
      (multi.Player_sim.internal_bits
      + Commcx.Blackboard.bits_written multi.Player_sim.board)
  in
  check_program (Congest.Algo_flood.max_id ~rounds:n);
  check_program Congest.Algo_luby.mis;
  check_program Congest.Algo_greedy_mis.mis;
  check_program (Congest.Algo_gather.exact_maxis ~m)

let test_player_sim_decides () =
  List.iter
    (fun intersecting ->
      let inst, x = instance 29 p3 ~intersecting in
      let answer, outcome =
        Player_sim.decide_disjointness inst ~predicate:(LF.predicate p3)
      in
      Alcotest.(check (option bool))
        "player protocol answer"
        (Some (Commcx.Functions.promise_pairwise_disjointness x))
        answer;
      check "board non-empty" true
        (Commcx.Blackboard.bits_written outcome.Player_sim.board > 0);
      (* authors are player indices *)
      List.iter
        (fun (author, _) -> check "author in range" true (author >= 0 && author < 3))
        (Commcx.Blackboard.bits_by_author outcome.Player_sim.board))
    [ true; false ]

let test_player_sim_all_players_write () =
  (* On a symmetric instance every player's region borders the others, so
     every player should author some blackboard traffic when gathering. *)
  let inst, _ = instance 31 p3 ~intersecting:false in
  let m = Wgraph.Graph.edge_count inst.Family.graph in
  let outcome = Player_sim.run (Congest.Algo_gather.exact_maxis ~m) inst in
  check_int "three authors" 3
    (List.length (Commcx.Blackboard.bits_by_author outcome.Player_sim.board))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let prop_player_sim_equivalence =
  QCheck.Test.make ~name:"player protocol == monolithic runtime" ~count:6
    QCheck.(pair small_int bool) (fun (seed, inter) ->
      let inst, _ = instance seed p2 ~intersecting:inter in
      let g = inst.Family.graph in
      let mono = Runtime.run Congest.Algo_luby.mis g in
      let multi = Player_sim.run Congest.Algo_luby.mis inst in
      mono.Runtime.outputs = multi.Player_sim.outputs
      && Congest.Trace.cut_bits mono.Runtime.trace inst.Family.partition
         = Commcx.Blackboard.bits_written multi.Player_sim.board)

let prop_all_algorithms_within_bound =
  QCheck.Test.make ~name:"Theorem 5 bound holds for every algorithm/input" ~count:8
    QCheck.(pair small_int bool) (fun (seed, inter) ->
      let inst, _ = instance seed p2 ~intersecting:inter in
      let n = Wgraph.Graph.n inst.Family.graph in
      let m = Wgraph.Graph.edge_count inst.Family.graph in
      let programs =
        [
          (fun () -> snd (Simulation.simulate (Congest.Algo_flood.max_id ~rounds:n) inst));
          (fun () -> snd (Simulation.simulate Congest.Algo_luby.mis inst));
          (fun () -> snd (Simulation.simulate (Congest.Algo_gather.exact_maxis ~m) inst));
        ]
      in
      List.for_all (fun run -> (run ()).Simulation.within_bound) programs)

let () =
  Alcotest.run "simulation"
    [
      ( "bounds",
        [
          Alcotest.test_case "flood" `Quick test_simulate_flood_within_bound;
          Alcotest.test_case "luby" `Quick test_simulate_luby_within_bound;
          Alcotest.test_case "gather" `Quick test_simulate_gather_within_bound;
          Alcotest.test_case "bound formula" `Quick test_report_bound_formula;
          Alcotest.test_case "quadratic instance" `Quick
            test_simulation_on_quadratic_instance;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "decides both sides" `Quick test_decide_disjointness_both_sides;
          Alcotest.test_case "exhaustive t=2 singletons" `Slow
            test_decide_disjointness_exhaustive_t2_singletons;
          Alcotest.test_case "truncation raises" `Quick test_decide_raises_when_truncated;
          Alcotest.test_case "cost exceeds CC bound" `Quick
            test_blackboard_bits_exceed_cc_bound;
        ] );
      ( "streamed-report",
        [
          Alcotest.test_case "report = folded, every engine" `Quick
            test_streamed_report_every_engine;
          Alcotest.test_case "report = folded, drop/duplicate plan" `Quick
            test_streamed_report_under_faults;
          Alcotest.test_case "simulate keeps the send log" `Quick
            test_simulate_keeps_send_log;
        ] );
      ( "player-protocol",
        [
          Alcotest.test_case "matches runtime" `Quick test_player_sim_matches_runtime;
          Alcotest.test_case "decides" `Quick test_player_sim_decides;
          Alcotest.test_case "all players write" `Quick test_player_sim_all_players_write;
        ] );
      qsuite "simulation-props"
        [ prop_all_algorithms_within_bound; prop_player_sim_equivalence ];
    ]
