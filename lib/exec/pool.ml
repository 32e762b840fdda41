(* A fixed-size pool of worker domains fed by a per-batch atomic task
   counter.

   Determinism does not come from scheduling (tasks are claimed
   first-come-first-served) but from indexing: task [i] writes only
   slot [i] of the result array, and the caller reassembles slots in
   input order.  Every slot is claimed through the counter exactly
   once, so publication is a plain slot write followed by
   [Atomic.incr filled]; that increment is the happens-before edge
   that makes the (nonatomic) slot write visible to whoever later reads
   [filled = count].  Task bodies never raise: every exception is
   captured into its slot and re-raised by the caller. *)

type batch = {
  count : int;
  mutable exec : int -> unit;
      (* compute + publish slot i; never raises.  Mutable only so the
         reusable [run_range] batch can be wired up after the record
         exists; [map] never reassigns it. *)
  next : int Atomic.t;  (* next unclaimed index *)
}

type shared = {
  m : Mutex.t;
  ready : Condition.t;  (* a new batch was published (gen bumped) *)
  finished : Condition.t;  (* a worker ran out of slots to claim *)
  mutable job : batch option;
  mutable gen : int;  (* batch generation; workers chase it *)
  mutable stop : bool;
}

(* Reusable state for {!run_range}: one chunk per pool slot, rebuilt
   never — the same batch record and error slots are reset in place
   each call, so a settled barrier round allocates nothing (the closure
   below is created once per pool, not per call). *)
type range_state = {
  mutable rs_f : int -> int -> unit;  (* body for the current call *)
  mutable rs_lo : int;
  mutable rs_hi : int;
  rs_err : (exn * Printexc.raw_backtrace) option array;
  rs_filled : int Atomic.t;
  rs_batch : batch;
  mutable rs_job : batch option;  (* preallocated [Some rs_batch] *)
}

type t = {
  jobs : int;
  id : int;
  shared : shared option;  (* None iff jobs = 1 *)
  mutable workers : unit Domain.t array;
  mutable alive : bool;
  mutable range : range_state option;  (* lazily built on first run_range *)
}

let jobs t = t.jobs

(* Pool metrics (docs/OBSERVABILITY.md).  One histogram observation per
   [map] batch — never per task — so instrumentation stays off the
   claim path. *)
let m_batches = Obs.Metrics.counter "pool_batches_total"

let m_tasks = Obs.Metrics.counter "pool_tasks_total"

let m_workers = Obs.Metrics.gauge "pool_workers"

let m_map_seconds =
  Obs.Metrics.histogram ~buckets:Obs.Metrics.default_latency_buckets
    "pool_map_seconds"

let timed_batch ~count f =
  Obs.Metrics.inc m_batches;
  Obs.Metrics.add m_tasks count;
  let t0 = Obs.Span.now () in
  let r = f () in
  Obs.Metrics.observe m_map_seconds (Obs.Span.now () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Batch mechanics *)

let rec drain b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.count then begin
    b.exec i;
    drain b
  end

let rec worker_loop sh seen =
  Mutex.lock sh.m;
  let rec await seen =
    if sh.stop then None
    else if sh.gen <> seen then (
      match sh.job with
      | Some b -> Some (sh.gen, b)
      | None -> await sh.gen (* batch came and went while we were idle *))
    else begin
      Condition.wait sh.ready sh.m;
      await seen
    end
  in
  match await seen with
  | None -> Mutex.unlock sh.m
  | Some (gen, b) ->
      Mutex.unlock sh.m;
      drain b;
      Mutex.lock sh.m;
      Condition.broadcast sh.finished;
      Mutex.unlock sh.m;
      worker_loop sh gen

(* The calling domain drains the counter alongside the workers, then
   sleeps until every slot has published, and closes the batch.  A
   worker broadcasts [finished] under [sh.m] after its last publish and
   the predicate is rechecked under [sh.m], so no wakeup can be lost. *)
let run_batch sh b filled =
  drain b;
  Mutex.lock sh.m;
  while Atomic.get filled < b.count do
    Condition.wait sh.finished sh.m
  done;
  sh.job <- None;
  Mutex.unlock sh.m

(* Spawning can fail transiently (thread limits, memory pressure).
   Retry briefly; a worker that still cannot spawn is left out, so the
   pool runs narrower and the calling domain drains the slots nobody
   else claims. *)
let spawn_worker sh =
  match
    Error.with_retries ~label:"pool.spawn" (fun () ->
        try Domain.spawn (fun () -> worker_loop sh 0)
        with e ->
          raise (Error.Error (Error.Worker_death (Printexc.to_string e))))
  with
  | d -> Some d
  | exception Error.Error (Error.Worker_death _) -> None

(* ------------------------------------------------------------------ *)
(* Process-exit registry *)

(* One process-wide at_exit hook over a registry of live pools (domains
   left blocked at process exit would make [exit] hang), instead of one
   closure pinned per pool forever. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 8

let registry_m = Mutex.create ()

let next_pool_id = Atomic.make 0

let rec registry_hook = lazy (at_exit shutdown_all)

and shutdown_all () =
  Mutex.lock registry_m;
  let pools = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
  Mutex.unlock registry_m;
  List.iter shutdown pools

and register t =
  Lazy.force registry_hook;
  Mutex.lock registry_m;
  Hashtbl.replace registry t.id t;
  Mutex.unlock registry_m

and unregister t =
  Mutex.lock registry_m;
  Hashtbl.remove registry t.id;
  Mutex.unlock registry_m

and shutdown t =
  if t.alive then begin
    t.alive <- false;
    unregister t;
    match t.shared with
    | None -> ()
    | Some sh ->
        Mutex.lock sh.m;
        sh.stop <- true;
        Condition.broadcast sh.ready;
        Mutex.unlock sh.m;
        Array.iter (fun d -> try Domain.join d with _ -> ()) t.workers;
        t.workers <- [||]
  end

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ~jobs () =
  if jobs < 1 then invalid_arg "Exec.Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      id = Atomic.fetch_and_add next_pool_id 1;
      shared =
        (if jobs = 1 then None
         else
           Some
             {
               m = Mutex.create ();
               ready = Condition.create ();
               finished = Condition.create ();
               job = None;
               gen = 0;
               stop = false;
             });
      workers = [||];
      alive = true;
      range = None;
    }
  in
  (match t.shared with
  | None -> ()
  | Some sh ->
      let spawned = List.init (jobs - 1) (fun _ -> spawn_worker sh) in
      t.workers <- Array.of_list (List.filter_map Fun.id spawned);
      Obs.Metrics.set m_workers (Array.length t.workers + 1);
      register t);
  t

(* ------------------------------------------------------------------ *)
(* map *)

let map t f xs =
  if not t.alive then invalid_arg "Exec.Pool.map: pool was shut down";
  let n = Array.length xs in
  if n = 0 then [||]
  else
    timed_batch ~count:n @@ fun () ->
    match t.shared with
    | None -> Array.map f xs
    | Some sh ->
        let slots = Array.make n None in
        let filled = Atomic.make 0 in
        let exec i =
          slots.(i) <-
            Some
              (try Ok (f xs.(i))
               with e -> Error (e, Printexc.get_raw_backtrace ()));
          Atomic.incr filled
        in
        let b = { count = n; exec; next = Atomic.make 0 } in
        Mutex.lock sh.m;
        if sh.job <> None then begin
          Mutex.unlock sh.m;
          invalid_arg "Exec.Pool.map: nested or concurrent map on one pool"
        end;
        sh.job <- Some b;
        sh.gen <- sh.gen + 1;
        Condition.broadcast sh.ready;
        Mutex.unlock sh.m;
        run_batch sh b filled;
        (* Reassemble in input order; re-raise the lowest-index failure
           (what a sequential loop would have raised first). *)
        Array.iter
          (function
            | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
            | Some (Ok _) -> ()
            | None -> assert false)
          slots;
        Array.map
          (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
          slots

let map_list t f xs = Array.to_list (map t f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* run_range: the barrier primitive behind the domain-sharded flat
   executor (docs/PERF.md).  [lo, hi) is split into exactly [jobs]
   contiguous chunks; every pool slot (workers + caller) executes one
   chunk as [f clo chi] and the call returns only when all chunks have
   published. *)

let m_range_batches = Obs.Metrics.counter "pool_range_batches_total"

let chunk_bounds ~jobs ~lo ~hi i =
  if jobs < 1 then invalid_arg "Exec.Pool.chunk_bounds: jobs must be >= 1";
  if i < 0 || i >= jobs then
    invalid_arg "Exec.Pool.chunk_bounds: chunk index out of range";
  let len = hi - lo in
  let q = len / jobs and r = len mod jobs in
  let clo = lo + (i * q) + min i r in
  (clo, clo + q + if i < r then 1 else 0)

let dummy_range_f _ _ = ()

let dummy_exec (_ : int) = ()

(* Built once per pool; closes over [rs] only. *)
let range_exec rs i =
  let jobs = Array.length rs.rs_err in
  let len = rs.rs_hi - rs.rs_lo in
  let q = len / jobs and r = len mod jobs in
  let clo = rs.rs_lo + (i * q) + if i < r then i else r in
  let chi = clo + q + if i < r then 1 else 0 in
  (try rs.rs_f clo chi
   with e -> rs.rs_err.(i) <- Some (e, Printexc.get_raw_backtrace ()));
  Atomic.incr rs.rs_filled

let range_state t =
  match t.range with
  | Some rs -> rs
  | None ->
      let jobs = t.jobs in
      let rs =
        {
          rs_f = dummy_range_f;
          rs_lo = 0;
          rs_hi = 0;
          rs_err = Array.make jobs None;
          rs_filled = Atomic.make 0;
          rs_batch = { count = jobs; exec = dummy_exec; next = Atomic.make 0 };
          rs_job = None;
        }
      in
      (* Wire the once-per-pool closure after the record exists (the
         batch and the state reference each other). *)
      rs.rs_batch.exec <- range_exec rs;
      rs.rs_job <- Some rs.rs_batch;
      t.range <- Some rs;
      rs

let rec range_reraise rs i =
  if i < Array.length rs.rs_err then
    match rs.rs_err.(i) with
    | Some (e, bt) ->
        rs.rs_err.(i) <- None;
        Printexc.raise_with_backtrace e bt
    | None -> range_reraise rs (i + 1)

let run_range t ~lo ~hi f =
  if not t.alive then invalid_arg "Exec.Pool.run_range: pool was shut down";
  if hi < lo then invalid_arg "Exec.Pool.run_range: hi < lo";
  Obs.Metrics.inc m_range_batches;
  match t.shared with
  | None -> f lo hi (* jobs = 1: the chunk is the whole range *)
  | Some sh ->
      let rs = range_state t in
      Mutex.lock sh.m;
      (* The nested/concurrent check must precede every write to [rs]:
         the range state is preallocated and shared, so a nested call
         from inside a chunk body would otherwise clobber the in-flight
         batch's cursors before discovering it must raise. *)
      if sh.job <> None then begin
        Mutex.unlock sh.m;
        invalid_arg "Exec.Pool.run_range: nested or concurrent batch on one pool"
      end;
      sh.gen <- sh.gen + 1;
      rs.rs_f <- f;
      rs.rs_lo <- lo;
      rs.rs_hi <- hi;
      Array.fill rs.rs_err 0 t.jobs None;
      Atomic.set rs.rs_filled 0;
      sh.job <- rs.rs_job;
      (* The claim counter is reset LAST.  A worker from the previous
         barrier sitting between its final publish and its next claim
         does not hold [sh.m], so until this store it must keep seeing
         the exhausted old counter (>= count — every chunk is claimed
         exactly once, so completion implies exhaustion) and exit
         cleanly.  Resetting [next] any earlier would let that worker
         claim a chunk of THIS call while [rs_filled] and [rs_err] are
         still mid-reset: its publication would be wiped by the reset
         below it and the barrier would hang forever.  This store is
         also the publication edge: a claim that does observe the fresh
         counter happens-after it and therefore sees the new
         [rs_f]/[rs_lo]/[rs_hi]. *)
      Atomic.set rs.rs_batch.next 0;
      Condition.broadcast sh.ready;
      Mutex.unlock sh.m;
      run_batch sh rs.rs_batch rs.rs_filled;
      rs.rs_f <- dummy_range_f;
      (* Lowest-index failure first: what ascending sequential chunk
         execution would have raised. *)
      range_reraise rs 0

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_jobs () =
  match Sys.getenv_opt "MAXIS_JOBS" with
  | None -> 1
  | Some s -> (
      match String.trim (String.lowercase_ascii s) with
      | "" -> 1
      | "auto" | "0" -> Domain.recommended_domain_count ()
      | s -> (
          match int_of_string_opt s with Some j when j >= 1 -> j | _ -> 1))
