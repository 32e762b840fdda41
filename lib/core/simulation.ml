module Runtime = Congest.Runtime
module Trace = Congest.Trace

type report = {
  algorithm : string;
  n : int;
  rounds : int;
  cut_size : int;
  bandwidth : int;
  blackboard_bits : int;
  blackboard_writes : int;
  blackboard_bits_dropped : int;
  blackboard_bits_delivered : int;
  bound_bits : int;
  within_bound : bool;
  total_bits : int;
  faults_injected : int;
}

(* Theorem 5's currency, exported as first-class counters: total
   blackboard writes/bits, the per-player split of the written bits, and
   a per-round ("per-phase") bits histogram.  Bumped once per simulation
   from the already-computed trace aggregates, so observability adds
   nothing to the runtime's hot loop. *)
let round_bits_buckets = [| 16.; 64.; 256.; 1024.; 4096. |]

let meter_blackboard ~algo ~(report_bits : int) ~writes ~per_player ~per_round =
  let labels = [ ("algo", algo) ] in
  Obs.Metrics.inc (Obs.Metrics.counter ~labels "simulation_runs_total");
  Obs.Metrics.add (Obs.Metrics.counter ~labels "blackboard_bits_total") report_bits;
  Obs.Metrics.add (Obs.Metrics.counter ~labels "blackboard_writes_total") writes;
  Array.iteri
    (fun p bits ->
      Obs.Metrics.add
        (Obs.Metrics.counter
           ~labels:(("player", string_of_int p) :: labels)
           "blackboard_player_bits_total")
        bits)
    per_player;
  let h =
    Obs.Metrics.histogram ~labels ~buckets:round_bits_buckets
      "blackboard_round_bits"
  in
  Array.iter (fun bits -> Obs.Metrics.observe h (float_of_int bits)) per_round

(* Every report field is an O(1) read of the trace's streamed
   accumulators: each entry point registers the player cut when it
   creates the trace, so the cut queries below never fold a send log. *)
let report_of ~config ~algo (inst : Family.instance)
    (result : _ Runtime.result) =
  let part = inst.Family.partition in
  let n = Wgraph.Graph.n inst.Family.graph in
  let cut_size = Family.cut_size inst in
  let bandwidth = Runtime.bandwidth_bits config ~n in
  let trace = result.Runtime.trace in
  let blackboard_bits = Trace.cut_bits trace part in
  let blackboard_writes = Trace.cut_messages trace part in
  let rounds = result.Runtime.rounds_executed in
  meter_blackboard ~algo ~report_bits:blackboard_bits ~writes:blackboard_writes
    ~per_player:(Trace.cut_bits_by_side trace part)
    ~per_round:(Trace.cut_bits_by_round trace part);
  (* Directed cut capacity: each undirected cut edge carries up to B bits in
     each direction per round, matching the proof's O(T·|cut|·log n) with
     the constant made explicit.  The cap bounds ATTEMPTED traffic — what
     the algorithm emits — so it holds whether or not a fault plan then
     drops part of it. *)
  let bound_bits = rounds * (2 * cut_size) * bandwidth in
  {
    algorithm = algo;
    n;
    rounds;
    cut_size;
    bandwidth;
    blackboard_bits;
    blackboard_writes;
    blackboard_bits_dropped = Trace.cut_bits_dropped trace part;
    blackboard_bits_delivered = Trace.cut_bits_delivered trace part;
    bound_bits;
    within_bound = blackboard_bits <= bound_bits;
    total_bits = Trace.total_bits trace;
    faults_injected = Trace.total_faults trace;
  }

(* [simulate] hands its result to the caller, who may still query the
   send log, so its trace stays [Full]; the registered cut only spares
   [report_of] the folds. *)
let simulate ?(config = Runtime.default_config) program (inst : Family.instance) =
  let trace = Trace.create ~cut:inst.Family.partition () in
  let result = Runtime.run ~config ~trace program inst.Family.graph in
  (result, report_of ~config ~algo:program.Congest.Program.name inst result)

let simulate_checked ?(config = Runtime.default_config) program
    (inst : Family.instance) =
  let trace = Trace.create ~cut:inst.Family.partition () in
  Runtime.run_checked ~config ~trace program inst.Family.graph
  |> Result.map (fun result ->
         (result, report_of ~config ~algo:program.Congest.Program.name inst result))

type engine = List_mode | Flat | Flat_par of Exec.Pool.t

type decision = {
  report : report;
  opt : int;
  verdict : Predicate.verdict;
  answer : bool option;
}

type error =
  | Runtime_failure of Runtime.failure
  | Incomplete of { rounds : int }

let pp_error ppf = function
  | Runtime_failure f -> Runtime.pp_failure ppf f
  | Incomplete { rounds } ->
      Format.fprintf ppf
        "gathering did not complete within %d rounds (increase max_rounds)"
        rounds

let decide_disjointness_checked ?(config = Runtime.default_config)
    ?(engine = List_mode) (inst : Family.instance) ~predicate =
  let g = inst.Family.graph in
  let m = Wgraph.Graph.edge_count g in
  (* The decision never exposes its trace, so the run streams into a
     [Light] one with the player cut registered: no send log, O(rounds +
     sides) memory.  The flat engines run the CSR twin of the instance
     graph under the flat gather port; report aggregates (rounds, cut
     bits, outputs) are engine-independent, which test/test_cli.ml pins
     via stdout parity. *)
  let trace = Trace.create ~mode:Trace.Light ~cut:inst.Family.partition () in
  let algo, checked =
    match engine with
    | List_mode ->
        let program = Congest.Algo_gather.exact_maxis ~m in
        ( program.Congest.Program.name,
          Runtime.run_checked ~config ~trace program g )
    | Flat | Flat_par _ ->
        let fp = Congest.Algo_gather.exact_maxis_flat ~m in
        let c = Wgraph.Csr.of_graph g in
        let run =
          match engine with
          | Flat_par pool -> Runtime.run_flat_par_checked ~pool
          | _ -> Runtime.run_flat_checked
        in
        (fp.Congest.Fastpath.fname, run ~config ~trace fp c)
  in
  match checked with
  | Error failure -> Error (Runtime_failure failure)
  | Ok result -> (
      let report = report_of ~config ~algo inst result in
      match result.Runtime.outputs.(0) with
      | None -> Error (Incomplete { rounds = result.Runtime.rounds_executed })
      | Some opt ->
          Ok
            {
              report;
              opt;
              verdict = Predicate.classify predicate opt;
              answer = Predicate.decides_to predicate opt;
            })

let decide_disjointness ?config ?engine (inst : Family.instance) ~predicate =
  match decide_disjointness_checked ?config ?engine inst ~predicate with
  | Ok d -> d
  | Error (Incomplete _) ->
      invalid_arg
        "Simulation.decide_disjointness: gathering did not complete \
         (increase max_rounds)"
  | Error (Runtime_failure f) ->
      invalid_arg
        (Format.asprintf "Simulation.decide_disjointness: %a" Runtime.pp_failure
           f)
