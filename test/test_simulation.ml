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

(* List-mode gather under a corrupting link plan, pinned to recorded
   values.  A corrupted fact keeps each field inside its declared width,
   but ids can exceed n-1 and edges can arrive with a > b, so the node's
   fact set must stay injective on those too: a fact key that merged two
   of them (kind·n² + a·n + b does) would change which facts flood, and
   with it the digest.  At this rate no node completes within the round
   cap. *)
let test_gather_under_corruption_pinned () =
  let p = P.make ~alpha:1 ~ell:3 ~players:2 in
  let inst, _ = instance 5 p ~intersecting:true in
  let g = inst.Family.graph in
  let m = Wgraph.Graph.edge_count g in
  let plan =
    Congest.Faults.plan ~default:(Congest.Faults.link ~corrupt:0.05 ()) 1
  in
  let config =
    { Runtime.default_config with Runtime.faults = Some plan; max_rounds = 300 }
  in
  let r = Runtime.run ~config (Congest.Algo_gather.exact_maxis ~m) g in
  check "no node completed" true
    (Array.for_all Option.is_none r.Runtime.outputs);
  check_int "rounds" 300 r.Runtime.rounds_executed;
  check_int "faults" 8868 (Trace.total_faults r.Runtime.trace);
  Alcotest.(check int64)
    "digest" 5455598828271805388L (Trace.digest r.Runtime.trace)

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

(* Player_sim against the monolithic runtime: same outputs, rounds and
   halting; board bits, board writes and internal bits equal the trace's
   cut bits, cut messages and the rest of its traffic. *)
let check_referee : type o.
    string -> o Congest.Program.t -> Family.instance -> unit =
 fun name program inst ->
  let mono = Runtime.run program inst.Family.graph in
  let multi = Player_sim.run program inst in
  let cut = Congest.Trace.cut_bits mono.Runtime.trace inst.Family.partition in
  check (name ^ " outputs equal") true
    (mono.Runtime.outputs = multi.Player_sim.outputs);
  check_int (name ^ " rounds equal") mono.Runtime.rounds_executed
    multi.Player_sim.rounds;
  check (name ^ " halting equal") mono.Runtime.all_halted
    multi.Player_sim.all_halted;
  check_int (name ^ " board bits = trace cut bits") cut
    (Commcx.Blackboard.bits_written multi.Player_sim.board);
  check_int (name ^ " internal bits = total - cut")
    (Congest.Trace.total_bits mono.Runtime.trace - cut)
    multi.Player_sim.internal_bits;
  check_int (name ^ " one write per cut message")
    (Congest.Trace.cut_messages mono.Runtime.trace inst.Family.partition)
    (Commcx.Blackboard.writes multi.Player_sim.board)

(* The library programs, each refereed on [inst]. *)
let check_referee_programs inst =
  let n = Wgraph.Graph.n inst.Family.graph in
  let m = Wgraph.Graph.edge_count inst.Family.graph in
  check_referee "flood" (Congest.Algo_flood.max_id ~rounds:n) inst;
  check_referee "luby" Congest.Algo_luby.mis inst;
  check_referee "greedy" Congest.Algo_greedy_mis.mis inst;
  check_referee "gather" (Congest.Algo_gather.exact_maxis ~m) inst

let test_player_sim_matches_runtime () =
  check_referee_programs (fst (instance 23 p3 ~intersecting:true))

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

(* Referee cases the gadget families never produce: a partition that
   interleaves the players over node ids (so the players step nodes out of
   id order), a program whose inbox order is observable, and the model
   violations, whose exception payloads must name the same round, sender,
   recipient and bit counts as the monolithic runtime's. *)

(* A 10-node graph: a cycle plus chords, with distinct weights. *)
let interleaved_instance () =
  let n = 10 in
  let g = Wgraph.Graph.create n in
  for v = 0 to n - 1 do
    Wgraph.Graph.add_edge g v ((v + 1) mod n);
    Wgraph.Graph.set_weight g v (1 + ((7 * v) mod 11))
  done;
  List.iter
    (fun (u, v) -> Wgraph.Graph.add_edge g u v)
    [ (0, 5); (1, 7); (2, 6); (3, 9); (4, 8) ];
  {
    Family.graph = g;
    partition = [| 2; 0; 1; 0; 2; 1; 1; 0; 2; 0 |];
    params = p3_small;
  }

let test_player_sim_interleaved_partition () =
  check_referee_programs (interleaved_instance ())

(* Every node sends each neighbour two messages per round and records its
   inbox exactly as delivered, so the output pins the order of same-sender
   ties as well as the order across senders. *)
let double_send ~rounds =
  {
    Congest.Program.name = "double-send";
    spawn =
      (fun view ->
        let seen = ref [] in
        let halted = ref false in
        {
          Congest.Program.step =
            (fun ~round ~inbox ->
              List.iter
                (fun (src, (m : Congest.Msg.t)) ->
                  match m.Congest.Msg.payload with
                  | Congest.Msg.Int x -> seen := (src, x) :: !seen
                  | _ -> ())
                inbox;
              if round >= rounds then begin
                halted := true;
                []
              end
              else
                Array.fold_right
                  (fun nb acc ->
                    let tagged k =
                      let x = (2 * (round mod 4)) + k in
                      (nb, Congest.Msg.int_msg ~width:4 x)
                    in
                    tagged 0 :: tagged 1 :: acc)
                  view.Congest.Program.neighbors []);
          halted = (fun () -> !halted);
          output = (fun () -> Some (List.rev !seen));
        });
  }

let test_player_sim_inbox_ties () =
  let inst = interleaved_instance () in
  check_referee "double-send" (double_send ~rounds:4) inst;
  let linear, _ = instance 61 p3_small ~intersecting:true in
  check_referee "double-send (linear)" (double_send ~rounds:3) linear

(* Runs [program] both ways and returns the exception each raised. *)
let raised program inst =
  let catch f = match f () with _ -> None | exception e -> Some e in
  ( catch (fun () -> Runtime.run program inst.Family.graph),
    catch (fun () -> Player_sim.run program inst) )

(* Node [culprit] misbehaves once, at round 2, by [misstep]; every other
   send is a legal 1-bit ping to each neighbour. *)
let misbehaving ~culprit misstep =
  {
    Congest.Program.name = "misbehaving";
    spawn =
      (fun view ->
        let halted = ref false in
        {
          Congest.Program.step =
            (fun ~round ~inbox:_ ->
              if round >= 4 then begin
                halted := true;
                []
              end
              else
                let pings =
                  Array.to_list
                    (Array.map
                       (fun nb -> (nb, Congest.Msg.unit_msg))
                       view.Congest.Program.neighbors)
                in
                if round = 2 && view.Congest.Program.id = culprit then
                  pings @ misstep view
                else pings);
          halted = (fun () -> !halted);
          output = (fun () -> None);
        });
  }

let test_player_sim_violations () =
  let inst = interleaved_instance () in
  let n = Wgraph.Graph.n inst.Family.graph in
  let limit = Runtime.bandwidth_bits Runtime.default_config ~n in
  (* Node 6 (player 1) oversends to node 2 (player 1, internal) and to
     node 7 (player 0, cross): the first overflowing send is the one
     reported. *)
  List.iter
    (fun dst ->
      let oversend _ = [ (dst, Congest.Msg.int_msg ~width:limit 0) ] in
      match raised (misbehaving ~culprit:6 oversend) inst with
      | ( Some (Runtime.Bandwidth_exceeded a),
          Some (Runtime.Bandwidth_exceeded b) ) ->
          check_int "round" a.round b.round;
          check_int "src" a.src b.src;
          check_int "dst" a.dst b.dst;
          check_int "bits" a.bits b.bits;
          check_int "limit" a.limit b.limit;
          check_int "reported dst" dst b.dst;
          check_int "reported bits" (limit + 1) b.bits
      | _ -> Alcotest.failf "oversend to %d: expected Bandwidth_exceeded twice" dst)
    [ 2; 7 ];
  (* Node 4 (player 2) sends to non-neighbour 0. *)
  let stray _ = [ (0, Congest.Msg.unit_msg) ] in
  match raised (misbehaving ~culprit:4 stray) inst with
  | Some (Runtime.Illegal_recipient a), Some (Runtime.Illegal_recipient b) ->
      check_int "round" a.round b.round;
      check_int "src" a.src b.src;
      check_int "dst" a.dst b.dst;
      check_int "reported" 2 b.round
  | _ -> Alcotest.fail "stray send: expected Illegal_recipient twice"

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
          Alcotest.test_case "list gather, corrupt plan" `Quick
            test_gather_under_corruption_pinned;
        ] );
      ( "player-protocol",
        [
          Alcotest.test_case "matches runtime" `Quick test_player_sim_matches_runtime;
          Alcotest.test_case "decides" `Quick test_player_sim_decides;
          Alcotest.test_case "all players write" `Quick test_player_sim_all_players_write;
          Alcotest.test_case "interleaved partition" `Quick
            test_player_sim_interleaved_partition;
          Alcotest.test_case "inbox ties" `Quick test_player_sim_inbox_ties;
          Alcotest.test_case "violations match runtime" `Quick
            test_player_sim_violations;
        ] );
      qsuite "simulation-props"
        [ prop_all_algorithms_within_bound; prop_player_sim_equivalence ];
    ]
