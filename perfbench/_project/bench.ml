(* One workload of the repository benchmark, run in a process of its own
   (perfbench/README.md has the workloads, metrics and how to run them).

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --maxis-lb EXE

   A run sets the workload up several times (see [setup]), runs one warm-up pass
   of its fixed work, then timed passes until S seconds have gone by
   (at least [min_passes]); more set-ups are spread between the timed
   passes.  Every pass checks its outputs; each checked
   operation counts once in [attempted], and once more in [failed] if
   its check does not hold.  With --trace 1 untraced and traced passes
   alternate: traced passes open [Obs.Span] spans around every call into
   a library layer, and diff [Obs.Metrics] counters and [Gc] stats
   around the pass.  Spans and counter diffs stay in memory until the
   end.

   The last stdout line is one JSON object with the raw samples of
   every metric, the operation counts, the spans and the counter diffs;
   perfbench/run.py summarises it.  Every input comes from --seed. *)

module J = Stdx.Jsonx
module M = Obs.Metrics
module Span = Obs.Span
module Prng = Stdx.Prng
module Csr = Wgraph.Csr
module RT = Congest.Runtime
module FP = Congest.Fastpath
module Tr = Congest.Trace
module P = Maxis_core.Params
module LF = Maxis_core.Linear_family
module QF = Maxis_core.Quadratic_family
module Sim = Maxis_core.Simulation
module Ver = Maxis_core.Verification
module Proto = Serve.Proto
module Client = Serve.Client

let now = Unix.gettimeofday
let setup_min_reps = 5
let setup_min_s = 1.0
let setup_max_reps = 200
let min_passes = 5

(* Set-ups spread between timed passes take about this share of the
   time the passes take, at most [spread_max_reps] after one pass. *)
let spread_share = 0.1
let spread_max_reps = 20

(* ------------------------------------------------------------------ *)
(* Results, kept in memory until the end of the run *)

let attempted = ref 0
let failed = ref 0
let failures = ref []

let op ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !failures < 20 then failures := what :: !failures
  end

let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 64

let sample name v =
  match Hashtbl.find_opt samples name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add samples name (ref [ v ])

let percentile xs p = Stdx.Stats.percentile (Array.of_list xs) p

let span_rows = ref []
let counter_rows = ref []

(* Per-pass derived metrics: stage metrics come from untraced timed
   passes (pass 0 is the warm-up), layer metrics from traced ones. *)
let stage i ~traced name v = if i > 0 && not traced then sample name v
let layer ~traced name v = if traced then sample name v

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Seeded streams: one per (workload seed, purpose). *)
let rng seed tag = Prng.create (Hashtbl.hash (seed, tag))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let out_dir = Filename.concat "perfbench" "out"
let work_dir = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ()))

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Cross-run determinism: the first run of a build with a seed records
   the exact counts; later runs of the same build (the same bench.exe,
   by digest) with the same seed must reproduce them. *)
let check_counts ~workload ~seed counts =
  let line =
    String.concat " "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts)
  in
  let dir = Filename.concat out_dir "counts" in
  Exec.Cache.mkdir_p dir;
  let build = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let path = Filename.concat dir (Printf.sprintf "%s-%d-%s.txt" workload seed build) in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let prev = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    op (prev = line) (Printf.sprintf "counts differ from an earlier run: %s vs %s" line prev)
  end
  else begin
    let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    let oc = open_out tmp in
    output_string oc (line ^ "\n");
    close_out oc;
    Sys.rename tmp path
  end

(* ------------------------------------------------------------------ *)
(* Set-up and the pass loop *)

(* One timed set-up, from a collected heap; its duration is a [setup_s]
   sample. *)
let timed_setup make =
  Gc.compact ();
  let t0 = now () in
  let c = make () in
  let dt = now () -. t0 in
  sample "setup_s" dt;
  (c, dt)

(* Makes and releases one more context; set by [setup ~spread:true]. *)
let resetup : (unit -> float) option ref = ref None

(* Runs [make] at least [setup_min_reps] times and until [setup_min_s]
   have been spent in it (at most [setup_max_reps] times), so that cheap
   set-ups get enough samples for a steady median.  Releases all but the
   last context and returns it.  With [~spread:true] the pass loop makes
   (and releases) more contexts between timed passes, so that the
   samples cover the whole run, as the pass times do. *)
let setup ~spread make release =
  let last = ref None and reps = ref 0 and spent = ref 0.0 in
  while !reps < setup_min_reps || (!spent < setup_min_s && !reps < setup_max_reps) do
    Option.iter release !last;
    last := None;
    let c, dt = timed_setup make in
    spent := !spent +. dt;
    incr reps;
    last := Some c
  done;
  if spread then
    resetup :=
      Some
        (fun () ->
          let c, dt = timed_setup make in
          release c;
          dt);
  Option.get !last

let span_prefix name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per layer: a span's time minus the time its children
   cover, charged to the layer its name starts with. *)
let layer_self_times roots =
  let tbl = Hashtbl.create 8 in
  let add k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let rec go (t : Span.tree) =
    let covered =
      List.fold_left (fun s (c : Span.tree) -> s +. c.Span.wall_s) 0.0 t.Span.children
    in
    add (span_prefix t.Span.name) (t.Span.wall_s -. covered);
    List.iter go t.Span.children
  in
  List.iter go roots;
  tbl

let json_of_diff pass d =
  List.filter_map
    (fun (s : M.sample) ->
      if s.M.value = 0.0 && s.M.sum = 0.0 then None
      else
        Some
          (J.Obj
             [
               ("pass", J.Int pass);
               ("name", J.Str s.M.name);
               ( "labels",
                 J.Obj (List.map (fun (k, v) -> (k, J.Str v)) s.M.labels) );
               ("value", J.Float s.M.value);
               ("sum", J.Float s.M.sum);
             ]))
    d

(* [prepare i] builds pass [i]'s inputs (untimed), [work i ~traced x]
   is the timed fixed work, [check i ~traced ~diff ~wall r] checks outputs and
   derives metrics (untimed); [wall] is the pass's timed duration.  Pass 0 is the warm-up. *)
let passes ~seconds ~trace ~prepare ~work ~check =
  let untraced_walls = ref [] and traced_walls = ref [] in
  let run i traced =
    let x = prepare i in
    (* Every pass starts from a compacted heap, as a fresh process
       would, so one pass's garbage does not slow the next. *)
    Gc.compact ();
    Span.reset ();
    Span.set_enabled traced;
    let before = if traced then M.snapshot () else [] in
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let r = work i ~traced x in
    let wall = now () -. t0 in
    let g1 = Gc.quick_stat () in
    Span.set_enabled false;
    let diff = if traced then M.diff ~before ~after:(M.snapshot ()) else [] in
    if traced then begin
      let roots = Span.roots () in
      List.iter
        (fun (path, w, counts) ->
          span_rows :=
            J.Obj
              [
                ("pass", J.Int i);
                ("span", J.Str path);
                ("wall_s", J.Float w);
                ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counts));
              ]
            :: !span_rows)
        (Span.to_rows roots);
      counter_rows := List.rev_append (json_of_diff i diff) !counter_rows;
      let selfs = layer_self_times roots in
      let attributed = Hashtbl.fold (fun _ v s -> s +. v) selfs 0.0 in
      List.iter
        (fun l ->
          sample ("layer." ^ l ^ "_s")
            (Option.value ~default:0.0 (Hashtbl.find_opt selfs l)))
        [ "congest"; "graph"; "core"; "serve" ];
      Hashtbl.iter
        (fun l _ ->
          if not (List.mem l [ "congest"; "graph"; "core"; "serve" ]) then
            failwith ("span outside the known layers: " ^ l))
        selfs;
      sample "unattributed_s" (wall -. attributed);
      op (wall -. attributed <= 0.01 *. wall) "more than 1% of a traced pass outside every span";
      sample "traced_wall_s" wall;
      sample "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
      sample "gc.major_collections"
        (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      sample "gc.top_heap_words" (float_of_int g1.Gc.top_heap_words);
      traced_walls := wall :: !traced_walls
    end
    else if i > 0 then begin
      sample "wall_s" wall;
      untraced_walls := wall :: !untraced_walls
    end;
    check i ~traced ~diff ~wall r
  in
  (* Time owed to spread set-ups: [spread_share] of each timed pass. *)
  let owed = ref 0.0 in
  let spread_setups () =
    match !resetup with
    | None -> ()
    | Some again ->
        let reps = ref 0 in
        while !owed > 0.0 && !reps < spread_max_reps do
          owed := !owed -. again ();
          incr reps
        done
  in
  run 0 false;
  let t_start = now () in
  let i = ref 1 in
  let enough () =
    now () -. t_start >= seconds
    && List.length !untraced_walls >= min_passes
    && ((not trace) || List.length !traced_walls >= min_passes)
  in
  while not (enough ()) do
    let traced = trace && List.length !traced_walls < List.length !untraced_walls in
    let t0 = now () in
    run !i traced;
    owed := !owed +. (spread_share *. (now () -. t0));
    spread_setups ();
    incr i
  done;
  if trace then begin
    let u = percentile !untraced_walls 50.0 in
    sample "trace_overhead_frac" ((percentile !traced_walls 50.0 -. u) /. u)
  end

let no_prepare _ = ()
let cvalue c = float_of_int (M.value c)
let range_batches = M.counter "pool_range_batches_total"
let arena_peak = M.gauge "runtime_arena_peak_words"

let flat_config rounds = { RT.default_config with RT.max_rounds = rounds }

(* What one timed run_flat / run_flat_par call (Light trace) did. *)
type engine_run = {
  rounds : int;
  digest : int64;
  messages : int;
  seconds : float;
  minor_words : float;
  batches : float;
}

let run_engine ?pool ~config fp c =
  let trace = Tr.create ~mode:Tr.Light () in
  let b0 = cvalue range_batches in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r =
    match pool with
    | None -> Span.with_span "congest.run_flat" (fun () -> RT.run_flat ~config ~trace fp c)
    | Some pool ->
        Span.with_span "congest.run_flat_par" (fun () ->
            RT.run_flat_par ~config ~trace ~pool fp c)
  in
  let seconds = now () -. t0 in
  let minor_words = Gc.minor_words () -. w0 and batches = cvalue range_batches -. b0 in
  let run =
    {
      rounds = r.RT.rounds_executed;
      digest = Tr.digest trace;
      messages = Tr.total_messages trace;
      seconds;
      minor_words;
      batches;
    }
  in
  (r.RT.outputs, run)

let same_run a b = a.rounds = b.rounds && a.digest = b.digest && a.messages = b.messages

let sum f xs = List.fold_left (fun s x -> s +. f x) 0.0 xs
let isum f xs = List.fold_left (fun s x -> s + f x) 0 xs

(* Exact counts must match the warm-up pass within a run. *)
let stable_counts = Hashtbl.create 8

let check_stable what v =
  match Hashtbl.find_opt stable_counts what with
  | None -> Hashtbl.add stable_counts what v
  | Some v0 -> op (v = v0) (Printf.sprintf "%s changed between passes: %d vs %d" what v v0)

let stable_list () =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) stable_counts [])

(* ------------------------------------------------------------------ *)
(* sparse-engine: flood / BFS / Luby, run_flat and run_flat_par *)

let sparse_n = 50_000
let sparse_rounds = 16

(* Built like the LARGEN graphs: about 3 random edges per node. *)
let sparse_graph r n =
  let b = Csr.Builder.create n in
  for v = 0 to n - 1 do
    for _ = 1 to 3 do
      let u = Prng.int r n in
      if u <> v then Csr.Builder.add_edge b v u
    done
  done;
  Csr.Builder.finish b

let sparse_engine ~seed ~seconds ~trace =
  let c, pool =
    setup ~spread:true
      (fun () ->
        let t0 = now () in
        let c = sparse_graph (rng seed "sparse-graph") sparse_n in
        sample "graph.sparse_build_s" (now () -. t0);
        (c, Exec.Pool.create ~jobs:2 ()))
      (fun (_, pool) -> Exec.Pool.shutdown pool)
  in
  let root = Prng.int (rng seed "sparse-root") sparse_n in
  let work _ ~traced:_ () =
    (* The output comparison is deferred to the untimed check. *)
    let pair name rounds fp =
      let config = flat_config rounds in
      let s_out, s = run_engine ~config (fp ()) c in
      let p_out, p = run_engine ~pool ~config (fp ()) c in
      (name, s, p, fun () -> s_out = p_out)
    in
    [
      pair "flood" sparse_rounds (fun () -> FP.max_id ~rounds:sparse_rounds);
      pair "bfs" sparse_rounds (fun () -> FP.bfs_distances ~root ~rounds:sparse_rounds);
      pair "luby" RT.default_config.RT.max_rounds (fun () -> FP.luby_mis);
    ]
  in
  let check i ~traced ~diff:_ ~wall:_ runs =
    List.iter
      (fun (name, s, p, same_outputs) ->
        op (same_run s p && same_outputs ()) (name ^ ": run_flat differs from run_flat_par"))
      runs;
    let seqs = List.map (fun (_, s, _, _) -> s) runs in
    let pars = List.map (fun (_, _, p, _) -> p) runs in
    let msgs = isum (fun r -> r.messages) seqs and rounds = isum (fun r -> r.rounds) seqs in
    check_stable "congest.messages" msgs;
    let seq_s = sum (fun r -> r.seconds) seqs and par_s = sum (fun r -> r.seconds) pars in
    let fm = float_of_int msgs and fr = float_of_int rounds in
    stage i ~traced "seq_msgs_per_s" (fm /. seq_s);
    stage i ~traced "par_msgs_per_s" (fm /. par_s);
    let layer = layer ~traced in
    layer "congest.run_flat_s" seq_s;
    layer "congest.ns_per_msg_seq" (1e9 *. seq_s /. fm);
    layer "congest.run_flat_par_s" par_s;
    layer "congest.ns_per_msg_par" (1e9 *. par_s /. fm);
    layer "congest.par_speedup" (seq_s /. par_s);
    layer "congest.par_overhead_s" ((2.0 *. par_s) -. seq_s);
    layer "congest.ns_per_round_par" (1e9 *. par_s /. fr);
    layer "congest.messages" fm;
    layer "congest.rounds" fr;
    layer "congest.arena_peak_words" (float_of_int (M.gauge_value arena_peak));
    layer "congest.minor_words_per_round" (sum (fun r -> r.minor_words) seqs /. fr);
    layer "exec.barriers_per_round" (sum (fun r -> r.batches) pars /. fr);
    layer "graph.edges" (float_of_int (Csr.edge_count c));
    layer "graph.resident_words" (float_of_int (Csr.resident_words c))
  in
  passes ~seconds ~trace ~prepare:no_prepare ~work ~check;
  check_stable "graph.edges" (Csr.edge_count c);
  sample "peak_rss_mb" (peak_rss_mb "self");
  Exec.Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* gadget-dense: Theorem-1 and Theorem-2 instances built into CSR *)

let gadget_target = 5_000
let gadget_flood_rounds = 4

(* The largest players=2 parameter point whose instance has at most
   [target] nodes. *)
let gadget_params ~quadratic target =
  let nodes p = if quadratic then QF.n_nodes p else LF.n_nodes p in
  let rec grow ell best =
    let p = P.make ~alpha:1 ~ell ~players:2 in
    if nodes p > target then best else grow (ell + 1) p
  in
  grow 3 (P.make ~alpha:1 ~ell:2 ~players:2)

type gadget_ctx = {
  g_pool : Exec.Pool.t;
  lp : P.t;
  lx : Commcx.Inputs.t;
  qp : P.t;
  qx : Commcx.Inputs.t;
  lin_ref : Csr.t;  (* unsharded builds, for the sharded-build check *)
  quad_ref : Csr.t;
}

type gadget_out = {
  lin : Csr.t;
  quad : Csr.t;
  flood_outputs : int option array list;
  floods : engine_run list;
  sort_s : float;
  lin_s : float;
  quad_s : float;
}

let gadget_dense ~seed ~seconds ~trace =
  (* Not spread: one set-up takes most of a pass, and a second context
     beside the live one would raise the peak RSS. *)
  let ctx =
    setup ~spread:false
      (fun () ->
        let r = rng seed "gadget-inputs" in
        let lp = gadget_params ~quadratic:false gadget_target in
        let qp = gadget_params ~quadratic:true gadget_target in
        let gen k = Commcx.Inputs.gen_promise r ~k ~t:2 ~intersecting:(Prng.bool r) in
        let lx = gen (P.k lp) in
        let qx = gen (QF.string_length qp) in
        let lin_ref = fst (LF.instance_csr lp lx) and quad_ref = fst (QF.instance_csr qp qx) in
        { g_pool = Exec.Pool.create ~jobs:2 (); lp; lx; qp; qx; lin_ref; quad_ref })
      (fun ctx -> Exec.Pool.shutdown ctx.g_pool)
  in
  let sort_s = ref 0.0 in
  let shard ~lo ~hi f =
    let t0 = now () in
    Span.with_span "graph.finish_sort" (fun () -> Exec.Pool.run_range ctx.g_pool ~lo ~hi f);
    sort_s := !sort_s +. (now () -. t0)
  in
  let config = flat_config gadget_flood_rounds in
  let work _ ~traced:_ () =
    sort_s := 0.0;
    let t0 = now () in
    let lin, _ =
      Span.with_span "core.linear_build" (fun () -> LF.instance_csr ~shard ctx.lp ctx.lx)
    in
    let t1 = now () in
    let quad, _ =
      Span.with_span "core.quadratic_build" (fun () -> QF.instance_csr ~shard ctx.qp ctx.qx)
    in
    let t2 = now () in
    let floods =
      List.map (fun c -> run_engine ~config (FP.max_id ~rounds:gadget_flood_rounds) c) [ lin; quad ]
    in
    let flood_outputs = List.map fst floods and floods = List.map snd floods in
    { lin; quad; flood_outputs; floods; sort_s = !sort_s; lin_s = t1 -. t0; quad_s = t2 -. t1 }
  in
  let last = ref None in
  let check i ~traced ~diff:_ ~wall:_ o =
    last := Some o;
    let edges = Csr.edge_count o.lin + Csr.edge_count o.quad in
    let msgs = isum (fun r -> r.messages) o.floods and rounds = isum (fun r -> r.rounds) o.floods in
    op (Csr.n o.lin = LF.n_nodes ctx.lp && Csr.n o.quad = QF.n_nodes ctx.qp) "gadget node count";
    op (List.for_all (fun r -> r.rounds = gadget_flood_rounds) o.floods) "flood round count";
    check_stable "graph.edges" edges;
    check_stable "congest.messages" msgs;
    List.iteri
      (fun i r -> check_stable (Printf.sprintf "flood%d.digest" i) (Int64.to_int r.digest))
      o.floods;
    let flood_s = sum (fun r -> r.seconds) o.floods in
    let fm = float_of_int msgs and fr = float_of_int rounds in
    stage i ~traced "build_s" (o.lin_s +. o.quad_s);
    stage i ~traced "seq_msgs_per_s" (fm /. flood_s);
    let layer = layer ~traced in
    layer "graph.finish_sort_s" o.sort_s;
    layer "graph.emit_s" (o.lin_s +. o.quad_s -. o.sort_s);
    layer "core.linear_build_s" o.lin_s;
    layer "core.quadratic_build_s" o.quad_s;
    layer "congest.run_flat_s" flood_s;
    layer "congest.ns_per_msg_seq" (1e9 *. flood_s /. fm);
    layer "congest.messages" fm;
    layer "congest.rounds" fr;
    layer "congest.arena_peak_words" (float_of_int (M.gauge_value arena_peak));
    layer "congest.minor_words_per_round" (sum (fun r -> r.minor_words) o.floods /. fr);
    layer "graph.edges" (float_of_int edges);
    layer "graph.resident_words"
      (float_of_int (Csr.resident_words o.lin + Csr.resident_words o.quad))
  in
  passes ~seconds ~trace ~prepare:no_prepare ~work ~check;
  sample "peak_rss_mb" (peak_rss_mb "self");
  (* Untimed cross-checks on the last pass: the sharded builds equal the
     sequential ones, and the sequential floods equal sharded floods. *)
  let o = Option.get !last in
  op (Csr.equal o.lin ctx.lin_ref) "linear sharded build differs";
  op (Csr.equal o.quad ctx.quad_ref) "quadratic sharded build differs";
  List.iteri
    (fun i c ->
      let p_out, p =
        run_engine ~pool:ctx.g_pool ~config (FP.max_id ~rounds:gadget_flood_rounds) c
      in
      op
        (same_run (List.nth o.floods i) p && List.nth o.flood_outputs i = p_out)
        "flood: run_flat_par differs from run_flat")
    [ o.lin; o.quad ];
  Exec.Pool.shutdown ctx.g_pool

(* ------------------------------------------------------------------ *)
(* paper-audit: the verify audit and the flat-par Theorem-5 simulation *)

let audit_point = P.make ~alpha:1 ~ell:4 ~players:3
let simulate_point = P.make ~alpha:1 ~ell:5 ~players:3

type audit_ctx = {
  a_pool : Exec.Pool.t;
  inst : Maxis_core.Family.instance;
  truth : bool;
  audit_seed : int;
  split_inst : Maxis_core.Family.instance;  (* at [audit_point] *)
  split_truth : bool;
}

let gen_linear r p =
  let x =
    Commcx.Inputs.gen_promise r ~k:(P.k p) ~t:p.P.players ~intersecting:(Prng.bool r)
  in
  (LF.instance p x, Commcx.Functions.promise_pairwise_disjointness x)

let paper_audit ~seed ~seconds ~trace =
  let ctx =
    setup ~spread:true
      (fun () ->
        let r = rng seed "audit" in
        let inst, truth = gen_linear r simulate_point in
        let audit_seed = Prng.int r 1_000_000_000 in
        let split_inst, split_truth = gen_linear r audit_point in
        {
          a_pool = Exec.Pool.create ~jobs:2 ();
          inst;
          truth;
          audit_seed;
          split_inst;
          split_truth;
        })
      (fun ctx -> Exec.Pool.shutdown ctx.a_pool)
  in
  (* The simulation's reference, outside the timed set-up: it is a check,
     and its cost depends on the instance the seed draws. *)
  let opt = Mis.Exact.opt ctx.inst.Maxis_core.Family.graph in
  let predicate = LF.predicate simulate_point in
  let split_pred = LF.predicate audit_point in
  let cache_dir i = Filename.concat work_dir (Printf.sprintf "cache-%d" i) in
  let prepare i = Exec.Cache.create ~dir:(cache_dir i) () in
  let work _ ~traced:_ cache =
    (* The simulation runs first: it sets the heap's high-water mark,
       and the audit then fits in the heap it leaves. *)
    let b0 = cvalue range_batches in
    let t0 = now () in
    let d =
      Span.with_span "core.simulate" (fun () ->
          Sim.decide_disjointness_checked ~engine:(Sim.Flat_par ctx.a_pool) ctx.inst
            ~predicate)
    in
    let t1 = now () in
    let batches = cvalue range_batches -. b0 in
    let items =
      Span.with_span "core.verify" (fun () ->
          Ver.run ~seed:ctx.audit_seed ~pool:ctx.a_pool ~cache audit_point)
    in
    let t2 = now () in
    (items, d, t2 -. t1, t1 -. t0, batches)
  in
  let check i ~traced ~diff ~wall:_ (items, d, verify_s, simulate_s, batches) =
    rm_rf (cache_dir i);
    List.iter
      (fun (it : Ver.item) ->
        op (Ver.passed it) (Format.asprintf "audit item: %a" Ver.pp_item it))
      items;
    stage i ~traced "verify_s" verify_s;
    stage i ~traced "simulate_s" simulate_s;
    match d with
    | Error e -> op false (Format.asprintf "simulation: %a" Sim.pp_error e)
    | Ok d ->
        let rep = d.Sim.report in
        op
          (d.Sim.answer = Some ctx.truth && d.Sim.opt = opt && rep.Sim.within_bound)
          "simulation answer, OPT or Theorem-5 bound";
        check_stable "core.blackboard_bits" rep.Sim.blackboard_bits;
        let get name = M.sum_family diff name in
        let hits = get "cache_hits_total" and misses = get "cache_misses_total" in
        let nodes = get "solver_nodes_total" in
        let layer = layer ~traced in
        if traced then begin
          (* The two simulations Verification.run makes, timed alone
             after the pass on an instance with the audit's parameters;
             the rest of verify_s is everything else the audit does. *)
          let t0 = now () in
          let d = Sim.decide_disjointness ctx.split_inst ~predicate:split_pred in
          let t1 = now () in
          let answer, _ =
            Maxis_core.Player_sim.decide_disjointness ctx.split_inst ~predicate:split_pred
          in
          let t2 = now () in
          op (d.Sim.answer = Some ctx.split_truth) "list-mode simulation answer";
          op (answer = Some ctx.split_truth) "player simulation answer";
          sample "core.simulation_list_s" (t1 -. t0);
          sample "core.player_sim_s" (t2 -. t1);
          sample "core.audit_rest_s" (verify_s -. (t2 -. t0))
        end;
        layer "core.blackboard_bits" (float_of_int rep.Sim.blackboard_bits);
        layer "congest.ns_per_round_par" (1e9 *. simulate_s /. float_of_int rep.Sim.rounds);
        layer "exec.barriers_per_round" (batches /. float_of_int rep.Sim.rounds);
        layer "congest.messages" (get "congest_messages_total");
        layer "congest.rounds" (get "congest_rounds_total");
        layer "congest.arena_peak_words" (float_of_int (M.gauge_value arena_peak));
        layer "exec.pool_tasks" (get "pool_tasks_total");
        layer "exec.pool_map_s"
          (match M.find diff "pool_map_seconds" with Some s -> s.M.sum | None -> 0.0);
        layer "exec.cache_hits" hits;
        layer "exec.cache_misses" misses;
        layer "exec.cache_hit_ratio" (ratio hits (hits +. misses));
        layer "exec.cache_written_bytes" (get "cache_written_bytes_total");
        layer "mis.solves" (get "solver_solves_total");
        layer "mis.solver_nodes" nodes;
        layer "mis.prune_ratio" (ratio (get "solver_prunes_total") nodes)
  in
  passes ~seconds ~trace ~prepare ~work ~check;
  sample "peak_rss_mb" (peak_rss_mb "self");
  Exec.Pool.shutdown ctx.a_pool

(* ------------------------------------------------------------------ *)
(* serve-mix: a maxis_lb serve child process under closed-loop load *)

let serve_requests = 240
let serve_budget_nodes = 1_000_000
let serve_connections = 2

type daemon = { pid : int; dir : string; metrics : Proto.addr; conns : Client.t array }

(* The daemons to kill if the run dies before stopping them. *)
let live_pids = ref []

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait_exit pid deadline
      end
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid deadline

let stop_daemon d =
  Array.iter Client.close d.conns;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait_exit d.pid (now () +. 10.0);
  live_pids := List.filter (fun p -> p <> d.pid) !live_pids;
  rm_rf d.dir

let daemons_started = ref 0

(* Fork, chdir into the daemon's own directory (so its result cache is
   fresh and private) and exec the server; return once it answers a
   ping on the first of the load connections. *)
let start_daemon exe =
  incr daemons_started;
  let dir = Filename.concat work_dir (Printf.sprintf "daemon-%d" !daemons_started) in
  Exec.Cache.mkdir_p dir;
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  let argv =
    [| exe; "serve"; "--listen"; "unix:w.sock"; "--metrics-listen"; "unix:m.sock";
       "--jobs"; "2" |]
  in
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          Unix.chdir dir;
          let log =
            Unix.openfile "daemon.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
          in
          Unix.dup2 log Unix.stdout;
          Unix.dup2 log Unix.stderr;
          Unix.execv exe argv
        with _ -> Unix._exit 127)
    | pid -> pid
  in
  live_pids := pid :: !live_pids;
  let wire = Proto.Unix_sock (Filename.concat dir "w.sock") in
  let metrics = Proto.Unix_sock (Filename.concat dir "m.sock") in
  let deadline = now () +. 30.0 in
  let rec first () =
    match Client.connect ~retries:1 wire with
    | c -> c
    | exception (Exec.Error.Error _ as e) ->
        if now () > deadline then raise e;
        Unix.sleepf 0.0002;
        first ()
  in
  let c0 = first () in
  let d =
    {
      pid;
      dir;
      metrics;
      conns = Array.init serve_connections (fun i -> if i = 0 then c0 else Client.connect wire);
    }
  in
  (match Client.request c0 (Proto.ping ()) with
  | r when Proto.reply_status r = "ok" -> ()
  | _ -> failwith "daemon did not answer ping");
  d

let () =
  at_exit (fun () ->
      List.iter
        (fun pid -> try Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid) with _ -> ())
        !live_pids)

let parse_prometheus body =
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> None
        | Some i -> (
            let key = String.sub line 0 i in
            let name =
              match String.index_opt key '{' with Some j -> String.sub key 0 j | None -> key
            in
            match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some v -> Some (name, v)
            | None -> None))
    (String.split_on_char '\n' body)

let prom rows name = List.fold_left (fun s (n, v) -> if n = name then s +. v else s) 0.0 rows

(* One request of the mix, with the payload in-process [Serve.Ops]
   gives for it. *)
type req = { request : Proto.request; expected : string }

(* Cold solves cycle through every (family, ell) pair, so each pass
   carries the same mix of cheap and expensive instances whatever the
   seed; the seed picks the promise inputs and the order. *)
let cold_kinds = [| (false, 3); (false, 4); (false, 5); (true, 3); (true, 4); (true, 5) |]

let solve_params r ~kind ~seed =
  let quadratic, ell = cold_kinds.(kind mod Array.length cold_kinds) in
  {
    Proto.alpha = 1;
    ell;
    players = 2;
    seed;
    intersecting = Prng.bool r;
    quadratic;
    budget_nodes = Some serve_budget_nodes;
  }

(* Per pass: 5% bounds, the rest split evenly between repeats of
   earlier passes' solves (cache hits) and cold solves.  The warm-up
   pass has no history, so it is all cold. *)
type kind = Bounds | Warm | Cold

let pass_kinds r ~first =
  let n_bounds = serve_requests / 20 in
  let n_warm = if first then 0 else (serve_requests - n_bounds) / 2 in
  let kinds =
    Array.init serve_requests (fun j ->
        if j < n_bounds then Bounds else if j < n_bounds + n_warm then Warm else Cold)
  in
  Prng.shuffle r kinds;
  kinds

let serve_mix ~exe ~seed ~seconds ~trace =
  let d = setup ~spread:true (fun () -> start_daemon exe) stop_daemon in
  let ref_cache = Exec.Cache.create ~dir:(Filename.concat work_dir "ref-cache") () in
  let budget () = Exec.Budget.create ~max_nodes:serve_budget_nodes () in
  let history = ref [||] in
  let latencies = ref [] in
  let prepare i =
    let r = rng seed (Printf.sprintf "serve-pass-%d" i) in
    let earlier = !history in
    let fresh = ref [] and n_cold = ref 0 and n_bounds = ref 0 in
    let kinds = pass_kinds r ~first:(Array.length earlier = 0) in
    let reqs =
      Array.mapi
        (fun j kind ->
          let id = J.Int ((i * serve_requests) + j) in
          match kind with
          | Bounds ->
              let ell = 3 + (!n_bounds mod 3) in
              incr n_bounds;
              let expected = Serve.Ops.bounds ~cache:ref_cache ~alpha:1 ~ell ~players:2 in
              { request = Proto.bounds ~id ~alpha:1 ~ell ~players:2 (); expected }
          | Warm | Cold ->
              let sp =
                if kind = Warm then earlier.(Prng.int r (Array.length earlier))
                else begin
                  (* unseen: distinct for every (seed, pass, request) *)
                  let sp =
                    solve_params r ~kind:!n_cold
                      ~seed:(((seed land 0xffff) lsl 20) + (i * serve_requests) + j)
                  in
                  incr n_cold;
                  fresh := sp :: !fresh;
                  sp
                end
              in
              let t0 = now () in
              let out = Serve.Ops.solve ~cache:ref_cache ~budget:(budget ()) sp in
              if i > 0 then
                sample
                  (if kind = Warm then "serve.ops_solve_warm_ms" else "serve.ops_solve_cold_ms")
                  (1000.0 *. (now () -. t0));
              { request = Proto.solve ~id sp; expected = out.Serve.Ops.payload })
        kinds
    in
    history := Array.append earlier (Array.of_list (List.rev !fresh));
    (* Codec cost per request: encode and decode the request and the
       reply it should get. *)
    let t0 = now () in
    Array.iter
      (fun q ->
        let line = Proto.encode_request q.request in
        ignore (Proto.decode_request line);
        let reply =
          Proto.Ok_reply
            { id = q.request.Proto.id; op = Proto.op_name q.request.Proto.op; payload = q.expected }
        in
        ignore (Proto.decode_reply (Proto.encode_reply reply)))
      reqs;
    if i > 0 then
      sample "serve.proto_codec_us" (1e6 *. (now () -. t0) /. float_of_int serve_requests);
    let scrape = if trace then parse_prometheus (Client.scrape d.metrics) else [] in
    (reqs, scrape)
  in
  let work _ ~traced:_ (reqs, before) =
    let n = Array.length reqs in
    let replies = Array.make n None and lat = Array.make n 0.0 in
    let client k () =
      let j = ref k in
      while !j < n do
        let t0 = now () in
        replies.(!j) <-
          (try Some (Client.request d.conns.(k) reqs.(!j).request)
           with Exec.Error.Error _ -> None);
        lat.(!j) <- now () -. t0;
        j := !j + serve_connections
      done
    in
    Span.with_span "serve.load" (fun () ->
        Array.init serve_connections (fun k -> Thread.create (client k) ())
        |> Array.iter Thread.join);
    (reqs, before, replies, lat)
  in
  let check i ~traced ~diff:_ ~wall (reqs, before, replies, lat) =
    let ok = ref 0 in
    Array.iteri
      (fun j q ->
        let good =
          match replies.(j) with
          | Some r -> Proto.reply_status r = "ok" && Proto.reply_payload r = Some q.expected
          | None -> false
        in
        if good then incr ok;
        op good (Printf.sprintf "request %d of pass %d: reply differs from Serve.Ops" j i))
      reqs;
    let lat_ms = Array.to_list (Array.map (fun s -> 1000.0 *. s) lat) in
    if i > 0 && not traced then latencies := List.rev_append lat_ms !latencies;
    if traced then begin
      let after = parse_prometheus (Client.scrape d.metrics) in
      let delta name = prom after name -. prom before name in
      let hits = delta "cache_hits_total" and misses = delta "cache_misses_total" in
      let nodes = delta "solver_nodes_total" in
      let daemon_ms =
        1000.0 *. ratio (delta "serve_latency_seconds_sum") (delta "serve_latency_seconds_count")
      in
      let layer = layer ~traced in
      layer "serve.daemon_latency_ms" daemon_ms;
      let client_ms = sum Fun.id lat_ms /. float_of_int (List.length lat_ms) in
      layer "serve.outside_daemon_ms" (client_ms -. daemon_ms);
      layer "serve.batch_size_mean"
        (ratio (float_of_int serve_requests) (delta "serve_batches_total"));
      layer "serve.batch_fallbacks" (delta "serve_batch_fallbacks_total");
      layer "exec.cache_hits" hits;
      layer "exec.cache_misses" misses;
      layer "exec.cache_hit_ratio" (ratio hits (hits +. misses));
      layer "exec.cache_written_bytes" (delta "cache_written_bytes_total");
      layer "exec.admission_rejected" (delta "admission_rejected_total");
      layer "exec.pool_tasks" (delta "pool_tasks_total");
      layer "exec.pool_map_s" (delta "pool_map_seconds_sum");
      layer "mis.solves" (delta "solver_solves_total");
      layer "mis.solver_nodes" nodes;
      layer "mis.prune_ratio" (ratio (delta "solver_prunes_total") nodes)
    end
    else if i > 0 then sample "serve_rps" (float_of_int !ok /. wall)
  in
  passes ~seconds ~trace ~prepare ~work ~check;
  sample "latency_p50_ms" (percentile !latencies 50.0);
  sample "latency_p99_ms" (percentile !latencies 99.0);
  sample "latency_samples" (float_of_int (List.length !latencies));
  sample "peak_rss_mb" (peak_rss_mb (string_of_int d.pid));
  stop_daemon d

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref (String.concat Filename.dir_sep [ "_build"; "default"; "bin"; "maxis_lb.exe" ]) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--maxis-lb", Arg.Set_string exe, "EXE maxis_lb executable (serve-mix)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let run =
    match !workload with
    | "sparse-engine" -> sparse_engine
    | "gadget-dense" -> gadget_dense
    | "paper-audit" -> paper_audit
    | "serve-mix" -> serve_mix ~exe:!exe
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  Span.set_clock now;
  Exec.Cache.mkdir_p work_dir;
  run ~seed ~seconds ~trace;
  check_counts ~workload:!workload ~seed (stable_list ());
  rm_rf work_dir;
  sample "error_rate" (ratio (float_of_int !failed) (float_of_int !attempted));
  let metrics =
    Hashtbl.fold
      (fun k v acc -> (k, J.Arr (List.rev_map (fun x -> J.Float x) !v)) :: acc)
      samples []
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str !workload);
            ("seed", J.Int seed);
            ("trace", J.Bool trace);
            ("ocaml_version", J.Str Sys.ocaml_version);
            ("domains", J.Int (Domain.recommended_domain_count ()));
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ("failures", J.Arr (List.rev_map (fun s -> J.Str s) !failures));
            ("samples", J.Obj (List.sort compare metrics));
            ("spans", J.Arr (List.rev !span_rows));
            ("counters", J.Arr (List.rev !counter_rows));
          ]))
