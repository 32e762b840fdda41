(* Chaos harness: program exceptions inside the sharded executor,
   seeded filesystem fault injection, and fsck repair — the unit-test
   side of the bench CHAOS leg (bench/exp_chaos.ml).

   Invariants exercised here:
   - a program exception mid-round escapes [Runtime.run_flat_par] at
     every width exactly as it escapes [Runtime.run_flat], with the same
     trace prefix;
   - the fault injector replays exactly: same plan + same operation
     sequence => same faults;
   - cache/journal on a faulty filesystem never return wrong values;
   - fsck quarantines every invalid entry, a second pass is clean, and
     a rerun hits every surviving entry.

   A [Unix.alarm] is armed in [main]: if any pool bug hangs a batch,
   the suite dies with SIGALRM instead of blocking CI. *)

module Pool = Exec.Pool
module Cache = Exec.Cache
module Journal = Exec.Journal
module Fsck = Exec.Fsck
module Fsio = Exec.Fsio

let check msg = Alcotest.(check bool) msg

let check_string msg = Alcotest.(check string) msg

let check_int msg = Alcotest.(check int) msg

let rm_rf root =
  let fs = Stdx.Fsio.real in
  let rec go path =
    if fs.Stdx.Fsio.file_exists path then
      if fs.Stdx.Fsio.is_directory path then begin
        Array.iter
          (fun f -> go (Filename.concat path f))
          (fs.Stdx.Fsio.readdir path);
        try fs.Stdx.Fsio.rmdir path with Sys_error _ -> ()
      end
      else try fs.Stdx.Fsio.remove path with Sys_error _ -> ()
  in
  go root

(* ------------------------------------------------------------------ *)
(* Sharded flat executor under a program exception mid-round *)

(* Wrap a flat program so node [at_node] raises [Failure] in round
   [at_round] — from inside [Runtime.run_flat_par]'s stage phase, on
   whichever domain executes that node's shard. *)
let failing_wrap (fp : 'out Congest.Fastpath.t) ~at_round ~at_node =
  {
    fp with
    Congest.Fastpath.fspawn =
      (fun view ->
        let node = fp.Congest.Fastpath.fspawn view in
        if view.Congest.Program.id <> at_node then node
        else
          {
            node with
            Congest.Fastpath.fstep =
              (fun ~round ~inbox em ->
                if round = at_round then
                  failwith (Printf.sprintf "node %d failed" at_node);
                node.Congest.Fastpath.fstep ~round ~inbox em);
          });
  }

let test_flat_par_program_exception () =
  (* A program exception mid-round must escape unchanged from
     [run_flat] and from [run_flat_par] at every width, leaving the
     trace prefix sequential execution recorded: Full prefixes agree on
     digest and message count, and every Light prefix agrees with the
     sequential Full one on each streamed aggregate. *)
  let rounds = 12 and at_round = 5 in
  let c = Wgraph.Csr.of_graph (Wgraph.Build.cycle 64) in
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }
  in
  let fp =
    failing_wrap (Congest.Fastpath.max_id ~rounds) ~at_round ~at_node:3
  in
  let module T = Congest.Trace in
  let prefix mode run =
    let trace = T.create ~mode () in
    match run trace with
    | _ -> Alcotest.fail "program exception did not surface"
    | exception Failure msg -> (msg, trace)
  in
  let seq mode =
    prefix mode (fun trace -> Congest.Runtime.run_flat ~config ~trace fp c)
  in
  let par jobs mode =
    Pool.with_pool ~jobs (fun pool ->
        prefix mode (fun trace ->
            Congest.Runtime.run_flat_par ~config ~trace ~pool fp c))
  in
  let summary t =
    [
      T.total_messages t;
      T.total_bits t;
      T.rounds t;
      T.max_bits_per_edge_round t;
    ]
  in
  let seq_msg, seq_full = seq T.Full in
  check_string "run_flat failure" "node 3 failed" seq_msg;
  check "prefix holds the earlier rounds" true (T.total_messages seq_full > 0);
  let expected = summary seq_full in
  Alcotest.(check (list int))
    "run_flat Light prefix" expected
    (summary (snd (seq T.Light)));
  List.iter
    (fun jobs ->
      let name = Printf.sprintf "jobs=%d" jobs in
      let msg, full = par jobs T.Full and lmsg, light = par jobs T.Light in
      check_string (name ^ " Full failure") seq_msg msg;
      check_string (name ^ " Light failure") seq_msg lmsg;
      check (name ^ " Full digest") true (T.digest full = T.digest seq_full);
      check_int (name ^ " Full messages") (T.total_messages seq_full)
        (T.total_messages full);
      Alcotest.(check (list int)) (name ^ " Light prefix") expected
        (summary light))
    [ 1; 2; 3; 8 ]

(* ------------------------------------------------------------------ *)
(* Fault injector replay *)

let test_fsio_replay_deterministic () =
  (* Same plan + same operation sequence => byte-identical outcomes:
     the same ops fail with the same errors, torn/flipped bytes land
     identically, and the fault counters agree. *)
  let dir = "chaos_fsio_test" in
  let plan =
    Fsio.plan
      ~default:
        (Fsio.op_fault ~eintr:0.2 ~enospc:0.15 ~torn:0.15 ~flip:0.15
           ~fail_rename:0.2 ())
      42
  in
  let episode () =
    rm_rf dir;
    Stdx.Fsio.mkdir_p dir;
    let inj = Fsio.injector plan in
    let fs = Fsio.faulty inj in
    let log = Buffer.create 512 in
    let op name f =
      match f () with
      | s -> Buffer.add_string log (Printf.sprintf "%s: %s\n" name s)
      | exception Sys_error m ->
          Buffer.add_string log (Printf.sprintf "%s: raised %s\n" name m)
    in
    let path k = Filename.concat dir (Printf.sprintf "f%02d" k) in
    for k = 0 to 11 do
      op
        (Printf.sprintf "write %d" k)
        (fun () ->
          fs.Stdx.Fsio.write_file (path k) (String.make (20 + k) 'a');
          "ok")
    done;
    for k = 0 to 11 do
      op
        (Printf.sprintf "read %d" k)
        (fun () -> Digest.to_hex (Digest.string (fs.Stdx.Fsio.read_file (path k))))
    done;
    op "rename" (fun () ->
        fs.Stdx.Fsio.rename (path 0) (path 0 ^ ".moved");
        "ok");
    for k = 1 to 4 do
      op
        (Printf.sprintf "append %d" k)
        (fun () ->
          fs.Stdx.Fsio.append_line (path k) "tail-line\n";
          "ok")
    done;
    (Buffer.contents log, Fsio.faults_injected inj, Fsio.total_injected inj)
  in
  let log1, faults1, total1 = episode () in
  let log2, faults2, total2 = episode () in
  check_string "identical op transcript" log1 log2;
  check "identical fault breakdown" true (faults1 = faults2);
  check_int "identical fault total" total1 total2;
  check "faults actually fired" true (total1 > 0);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Cache + journal under faults, repaired by fsck *)

let chaos_root = "chaos_state_test"

let chaos_cache_dir = Filename.concat chaos_root "cache"

let chaos_journal_dir = Filename.concat chaos_root "journal"

let key_for i =
  Cache.key ~family:"chaos-test"
    ~params:(Printf.sprintf "cell=%d" i)
    ~seed:i ~solver:"s" ()

let value_for i = Printf.sprintf "value-%d-%s" i (String.make 24 'v')

let entry_files dir =
  (* Every *.entry under the two-level tree, quarantine excluded. *)
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun shard ->
           let d = Filename.concat dir shard in
           if shard <> "quarantine" && Sys.is_directory d then
             Sys.readdir d |> Array.to_list |> List.sort compare
             |> List.filter_map (fun f ->
                    if Filename.check_suffix f ".entry" then
                      Some (Filename.concat d f)
                    else None)
           else [])

let test_state_survives_faults_and_fsck () =
  rm_rf chaos_root;
  let n = 12 in
  let plan =
    Fsio.plan
      ~default:
        (Fsio.op_fault ~eintr:0.08 ~enospc:0.06 ~torn:0.06 ~flip:0.05
           ~fail_rename:0.08 ())
      2020
  in
  let inj = Fsio.injector plan in
  let fs = Fsio.chaos inj in
  (* Hot-path contract under injected faults: memo never returns a
     wrong value, whatever the filesystem does underneath. *)
  let cache = Cache.create ~fs ~dir:chaos_cache_dir () in
  for i = 0 to n - 1 do
    for _ = 1 to 3 do
      check_string "memo value survives faults" (value_for i)
        (Cache.memo cache (key_for i) (fun () -> value_for i))
    done
  done;
  (* Journal on the same faulty filesystem; append failures surviving
     the retries are tolerated (completion tracking is an accelerator,
     not a correctness dependency). *)
  (match
     Journal.open_ ~fs ~dir:chaos_journal_dir ~run_id:"chaos-test" ()
   with
  | j ->
      for i = 0 to n - 1 do
        try Journal.record j (key_for i) with Exec.Error.Error _ -> ()
      done;
      Journal.close j
  | exception Exec.Error.Error _ -> ());
  (* fsck pass 1: every invalid entry — and only those — quarantined. *)
  let invalid_before =
    List.length
      (List.filter
         (fun p -> Result.is_error (Cache.validate_file p))
         (entry_files chaos_cache_dir))
  in
  let report1 = Fsck.run ~cache_dir:chaos_cache_dir ~journal_dir:chaos_journal_dir () in
  check_int "every invalid entry quarantined" invalid_before
    report1.Fsck.cache_quarantined;
  check "surviving entries all valid" true
    (List.for_all
       (fun p -> Result.is_ok (Cache.validate_file p))
       (entry_files chaos_cache_dir));
  (* Pass 2: idempotent, nothing left to repair. *)
  let report2 = Fsck.run ~cache_dir:chaos_cache_dir ~journal_dir:chaos_journal_dir () in
  check "second fsck pass clean" true (Fsck.clean report2);
  (* Rerun on a clean filesystem: every surviving entry is a hit for
     its key, and missing ones heal by recomputation. *)
  let clean_cache = Cache.create ~dir:chaos_cache_dir () in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    let digest = Cache.digest_hex (key_for i) in
    let p =
      Filename.concat
        (Filename.concat chaos_cache_dir (String.sub digest 0 2))
        (digest ^ ".entry")
    in
    if Sys.file_exists p then begin
      incr hits;
      match Cache.find clean_cache (key_for i) with
      | Some v -> check_string "surviving entry hits" (value_for i) v
      | None -> Alcotest.fail ("surviving entry missed: " ^ p)
    end
    else
      check_string "quarantined entry heals" (value_for i)
        (Cache.memo clean_cache (key_for i) (fun () -> value_for i))
  done;
  check "some entries survived the chaos" true (!hits > 0);
  (* The repaired journal resumes cleanly and only ever marks our own
     keys complete. *)
  (match
     Journal.open_ ~dir:chaos_journal_dir ~run_id:"chaos-test" ()
   with
  | j ->
      let completed = ref 0 in
      for i = 0 to n - 1 do
        if Journal.completed j (key_for i) then incr completed
      done;
      check_int "resumed = completed among our keys" (Journal.resumed_count j)
        !completed;
      Journal.close j
  | exception Exec.Error.Error _ -> Alcotest.fail "repaired journal must open");
  rm_rf chaos_root

(* ------------------------------------------------------------------ *)
(* End-to-end: combined chaos *)

let e2e_root = "chaos_e2e_test"

let test_end_to_end_chaos () =
  (* Filesystem faults under a 3-wide pool, pinned seeds: the sweep
     must terminate (alarm guard in [main]) with rows
     byte-identical to the clean sequential reference, and an
     fsck-repaired rerun must reproduce them again. *)
  rm_rf e2e_root;
  let cache_dir = Filename.concat e2e_root "cache" in
  let n = 16 in
  let cell i = Printf.sprintf "cell %d: %d" i ((i * 7919) mod 1009) in
  let reference = Array.init n cell in
  let plan =
    Fsio.plan
      ~default:
        (Fsio.op_fault ~eintr:0.05 ~enospc:0.04 ~torn:0.04 ~flip:0.03
           ~fail_rename:0.04 ())
      77
  in
  let inj = Fsio.injector plan in
  let cache = Cache.create ~fs:(Fsio.chaos inj) ~dir:cache_dir () in
  let rows =
    Pool.with_pool ~jobs:3 (fun pool ->
        Pool.map pool
          (fun i -> Cache.memo cache (key_for i) (fun () -> cell i))
          (Array.init n Fun.id))
  in
  check "chaos rows = clean reference" true (rows = reference);
  ignore (Fsck.run ~cache_dir ~journal_dir:(Filename.concat e2e_root "none") ());
  let repaired = Cache.create ~dir:cache_dir () in
  let rows' =
    Array.init n (fun i -> Cache.memo repaired (key_for i) (fun () -> cell i))
  in
  check "repaired rerun rows identical" true (rows' = reference);
  rm_rf e2e_root

(* ------------------------------------------------------------------ *)

let () =
  (* A pool bug must fail CI, not block it. *)
  ignore (Unix.alarm 600);
  Alcotest.run "chaos"
    [
      ( "pool",
        [
          Alcotest.test_case "flat-par program exception mid-round" `Quick
            test_flat_par_program_exception;
        ] );
      ( "fsio",
        [
          Alcotest.test_case "replay determinism" `Quick
            test_fsio_replay_deterministic;
        ] );
      ( "state",
        [
          Alcotest.test_case "cache+journal under faults, fsck repair" `Quick
            test_state_survives_faults_and_fsck;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "combined chaos terminates identically" `Quick
            test_end_to_end_chaos;
        ] );
    ]
