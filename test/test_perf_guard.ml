(* Allocation-regression guard for the zero-allocation CONGEST hot path.

   [Runtime.run_flat] stages messages in preallocated int buffers and the
   Light trace streams scalars, so once buffer sizes settle a round
   allocates (next to) nothing on the minor heap.  Any per-message record,
   tuple or cons creeping back into the hot path shows up as thousands of
   minor words per round — orders of magnitude above the pinned ceiling.

   Methodology: flood on a cycle propagates for ~n/2 rounds at 2 messages
   per node per round, so two runs of the same workload differing only in
   round count isolate the steady-state per-round cost — spawn cost,
   buffer growth and the measurement harness cancel in the difference. *)

module Build = Wgraph.Build
module Csr = Wgraph.Csr

let cycle_csr n = Csr.of_graph (Build.cycle n)

let minor_words_for rounds c =
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }
  in
  let fp = Congest.Fastpath.max_id ~rounds in
  let trace = Congest.Trace.create ~mode:Congest.Trace.Light () in
  let before = Gc.minor_words () in
  let result = Congest.Runtime.run_flat ~config ~trace fp c in
  let after = Gc.minor_words () in
  Alcotest.(check int) "ran all rounds" rounds result.Congest.Runtime.rounds_executed;
  after -. before

(* The cycle is long enough that the max id is still propagating in every
   measured round: message volume stays at 2 per node per round. *)
let n = 512
let short_rounds = 40
let long_rounds = 200

(* Ceiling in minor words per steady-state round.  The true settled cost
   is ~0; 256 gives slack for GC bookkeeping while staying far below the
   ~3 words x 1024 messages a single per-message allocation would add. *)
let ceiling_words_per_round = 256.0

let test_flat_alloc_per_round () =
  let c = cycle_csr n in
  (* Warm-up run settles shared metric handles and any lazy state. *)
  ignore (minor_words_for 8 c);
  let short = minor_words_for short_rounds c in
  let long = minor_words_for long_rounds c in
  let per_round =
    (long -. short) /. float_of_int (long_rounds - short_rounds)
  in
  if per_round > ceiling_words_per_round then
    Alcotest.failf
      "flat hot path allocates %.1f minor words/round (ceiling %.0f): a \
       per-message allocation has crept back in"
      per_round ceiling_words_per_round

(* The sharded executor must hold the same bar per domain: once arenas
   settle, a shard's stage phase allocates nothing.  [alloc_probe]
   accumulates each shard's own minor-word delta around its stage body
   (measured on the domain that ran the chunk — minor heaps are
   per-domain), so the long-minus-short difference isolates the settled
   per-round cost of every shard at once.  The per-domain ceiling is
   tighter than the whole-run one: a shard touches only its node range,
   so there is even less bookkeeping to hide behind. *)
let per_domain_ceiling = 64.0

let par_minor_words_for pool probe rounds c =
  Array.fill probe 0 (Array.length probe) 0.0;
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }
  in
  let fp = Congest.Fastpath.max_id ~rounds in
  let trace = Congest.Trace.create ~mode:Congest.Trace.Light () in
  let result =
    Congest.Runtime.run_flat_par ~config ~trace ~alloc_probe:probe ~pool fp c
  in
  Alcotest.(check int)
    "ran all rounds" rounds result.Congest.Runtime.rounds_executed;
  Array.copy probe

let test_par_stage_alloc_per_round () =
  let c = cycle_csr n in
  let jobs = 4 in
  Exec.Pool.with_pool ~jobs (fun pool ->
      let probe = Array.make jobs 0.0 in
      ignore (par_minor_words_for pool probe 8 c);
      let short = par_minor_words_for pool probe short_rounds c in
      let long = par_minor_words_for pool probe long_rounds c in
      let dr = float_of_int (long_rounds - short_rounds) in
      Array.iteri
        (fun s _ ->
          let per_round = (long.(s) -. short.(s)) /. dr in
          if per_round > per_domain_ceiling then
            Alcotest.failf
              "shard %d of %d stages %.1f minor words/round (ceiling %.0f): \
               the parallel stage phase is no longer allocation-free"
              s jobs per_round per_domain_ceiling)
        probe)

(* The list-mode arena is not zero-allocation (Program.step speaks in
   lists), but it must stay linear in delivered messages — the historical
   per-round hashtable resets and sort allocations are gone.  ~28 words
   per message (cons + tuple + Msg + arena slack) is generous; the guard
   catches anything quadratic or a new per-round O(n) term. *)
let test_list_alloc_per_message () =
  let g = Build.cycle n in
  let rounds = 120 in
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }
  in
  let prog = Congest.Algo_flood.max_id ~rounds in
  ignore (Congest.Runtime.run ~config prog g);
  let before = Gc.minor_words () in
  let result = Congest.Runtime.run ~config prog g in
  let after = Gc.minor_words () in
  let msgs =
    Congest.Trace.total_messages result.Congest.Runtime.trace
  in
  let per_msg = (after -. before) /. float_of_int (max msgs 1) in
  if per_msg > 60.0 then
    Alcotest.failf "list-mode path allocates %.1f minor words/message" per_msg

(* Gadget construction writes its CSR rows in closed form: apart from the
   result itself ([Csr.resident_words]: offsets, neighbors, weights) it
   allocates only O(n) words — the input weights, the partition, the
   symmetry cursors, the row flags and the per-build codeword tables.  An
   edge list (two arrays of m entries) or a second neighbors array (2m
   entries) would overshoot this by a multiple of the slack at any point
   whose rows have degree in the tens. *)
let slack_words_per_node = 8
let slack_words = 1024

(* Words allocated by [f ()], minor and major: the flanking minor
   collections flush the minor heap, so the counters are exact. *)
let words_allocated f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let test_gadget_build_alloc () =
  let module P = Maxis_core.Params in
  let p = P.make ~alpha:1 ~ell:10 ~players:3 in
  let rng = Stdx.Prng.create 19 in
  let lx = Commcx.Inputs.gen_promise rng ~k:(P.k p) ~t:3 ~intersecting:true in
  let qx =
    Commcx.Inputs.gen_promise rng
      ~k:(Maxis_core.Quadratic_family.string_length p)
      ~t:3 ~intersecting:false
  in
  List.iter
    (fun (name, build) ->
      ignore (build ());
      let (c, _), words = words_allocated build in
      let bound =
        Csr.resident_words c + (slack_words_per_node * Csr.n c) + slack_words
      in
      if words > float_of_int bound then
        Alcotest.failf
          "%s instance_csr (n=%d, m=%d) allocates %.0f words, over %d = \
           resident %d + %d·n + %d: an edge list or adjacency copy is back"
          name (Csr.n c) (Csr.edge_count c) words bound (Csr.resident_words c)
          slack_words_per_node slack_words)
    [
      ("linear", fun () -> Maxis_core.Linear_family.instance_csr p lx);
      ("quadratic", fun () -> Maxis_core.Quadratic_family.instance_csr p qx);
    ]

let () =
  Alcotest.run "perf_guard"
    [
      ( "allocation",
        [
          Alcotest.test_case "flat rounds are allocation-free" `Quick
            test_flat_alloc_per_round;
          Alcotest.test_case "sharded stage phase is allocation-free" `Quick
            test_par_stage_alloc_per_round;
          Alcotest.test_case "list mode stays linear" `Quick
            test_list_alloc_per_message;
          Alcotest.test_case "gadget build is O(n + m)" `Quick
            test_gadget_build_alloc;
        ] );
    ]
