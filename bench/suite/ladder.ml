(* The cost ladder: each rung calls one layer's public functions in a
   tight loop from this process, bottom up (platform, trace, mechanism,
   problems, workload, serve, detsched). A rung reports ns per call and
   minor words per call on the calling domain, each the median of
   [repeats] timed batches. The difference between adjacent rungs is
   the attribution of cost to a layer. *)

module PMutex = Sync_platform.Mutex
module PCond = Sync_platform.Condition
module Sem = Sync_platform.Semaphore.Counting
module Deadline = Sync_platform.Deadline
module Queuelock = Sync_prims.Queuelock
module Prims = Sync_prims.Prims
module Probe = Sync_trace.Probe
module Profile = Sync_trace.Profile
module Histogram = Sync_metrics.Histogram
module Recorder = Sync_metrics.Recorder
module Summary = Sync_metrics.Summary
module Wire = Sync_serve.Wire
module Service = Sync_serve.Service
module Client = Sync_serve.Client
module P = Sync_problems

type scale = {
  batch_ms : int;  (** wall time of one timed batch *)
  repeats : int;  (** timed batches per rung *)
  samples : int;  (** samples of the rungs that time single events *)
  load_ms : int;  (** steady window of the short workload runs *)
  rounds : int;  (** rounds of the contended runs *)
  drive_ms : int;  (** steady window of the daemon runs *)
  dpor_budget : int;  (** schedule budget per DPOR scenario *)
}

let full =
  { batch_ms = 20; repeats = 5; samples = 20; load_ms = 300; rounds = 4;
    drive_ms = 2000; dpor_budget = 1_000_000 }

let quick =
  { batch_ms = 2; repeats = 3; samples = 5; load_ms = 60; rounds = 2;
    drive_ms = 200; dpor_budget = 4000 }

let m = Doc.metric

let ns_of = Box.now_ns

(* (ns, minor words) per call of [f]. *)
let cost sc f =
  let batch n =
    let w0 = Gc.minor_words () in
    let t0 = ns_of () in
    for _ = 1 to n do
      f ()
    done;
    let t = ns_of () - t0 in
    (t, Gc.minor_words () -. w0)
  in
  let target = sc.batch_ms * 1_000_000 in
  let rec calibrate n =
    let t, _ = batch n in
    if t >= target / 4 || n >= 1 lsl 28 then max 1 (n * target / max 1 t)
    else calibrate (n * 2)
  in
  let n = calibrate 16 in
  let runs =
    List.init sc.repeats (fun _ ->
        let t, w = batch n in
        (float_of_int t /. float_of_int n, w /. float_of_int n))
  in
  (Stat.median (List.map fst runs), Stat.median (List.map snd runs))

let ns sc f = fst (cost sc f)

(* -- platform ------------------------------------------------------- *)

let tiers : (string * ((unit -> PMutex.t) -> PMutex.t)) list =
  [ ("default", fun f -> f ());
    ("fast", Sync_platform.Fastpath.with_enabled);
    ("mcs", Queuelock.with_kind Queuelock.MCS);
    ("clh", Queuelock.with_kind Queuelock.CLH);
    ("ticket", Queuelock.with_kind Queuelock.Ticket);
    ("cas", Prims.with_class Prims.CAS);
    ("faa", Prims.with_class Prims.FAA);
    ("llsc", Prims.with_class Prims.LLSC);
    ("swap", PMutex.with_swappable) ]

(* Two domains pass a turn back and forth through a mutex and
   condition; µs per one-way handoff. *)
let cond_handoff_us ~iters =
  let mu = PMutex.create () and c = PCond.create () in
  let turn = ref 0 in
  let pass me other =
    for _ = 1 to iters do
      PMutex.lock mu;
      while !turn <> me do
        PCond.wait c mu
      done;
      turn := other;
      PCond.signal c;
      PMutex.unlock mu
    done
  in
  let t0 = ns_of () in
  let d = Domain.spawn (fun () -> pass 1 0) in
  pass 0 1;
  Domain.join d;
  float_of_int (ns_of () - t0) /. 1e3 /. float_of_int (2 * iters)

let timeout_ns = 1_000_000

(* A wait that must time out after [timeout_ns]: (µs late, µs of CPU
   spent meanwhile), medians over [samples]. Nothing else in this
   process runs during the wait, so process CPU is the waiter's. *)
let timed_wait sc wait =
  let runs =
    List.init sc.samples (fun _ ->
        let c0 = Box.self_cpu_ns () and t0 = ns_of () in
        wait ();
        let late = ns_of () - t0 - timeout_ns in
        let cpu = Box.self_cpu_ns () - c0 in
        (float_of_int late /. 1e3, float_of_int cpu /. 1e3))
  in
  (Stat.median (List.map fst runs), Stat.median (List.map snd runs))

let timed_waits sc =
  let cond =
    let mu = PMutex.create () and c = PCond.create () in
    fun () ->
      PMutex.lock mu;
      let deadline = Deadline.after_ns (Int64.of_int timeout_ns) in
      while PCond.wait_for c mu ~deadline do
        ()
      done;
      PMutex.unlock mu
  in
  let sem fairness =
    let s = Sem.create ~fairness 0 in
    fun () -> ignore (Sem.acquire_for s ~timeout_ns:(Int64.of_int timeout_ns))
  in
  (* The mutex is held by this thread while a second one times out on it. *)
  let mutex () =
    let mu = PMutex.create () in
    PMutex.lock mu;
    let r = ref (nan, nan) in
    let th =
      Thread.create
        (fun () ->
          r :=
            timed_wait sc (fun () ->
                ignore (PMutex.try_lock_for mu ~timeout_ns:(Int64.of_int timeout_ns))))
        ()
    in
    Thread.join th;
    PMutex.unlock mu;
    !r
  in
  [ ("cond", timed_wait sc cond); ("sem_strong", timed_wait sc (sem `Strong));
    ("sem_weak", timed_wait sc (sem `Weak)); ("mutex", mutex ()) ]

let platform sc =
  let mutexes =
    List.map
      (fun (tier, scope) ->
        let mu = scope (fun () -> PMutex.create ()) in
        (tier, cost sc (fun () -> PMutex.lock mu; PMutex.unlock mu)))
      tiers
  in
  let sem fairness =
    let s = Sem.create ~fairness 1 in
    ns sc (fun () -> Sem.p s; Sem.v s)
  in
  let waits = timed_waits sc in
  List.map (fun (t, (c, _)) -> m ("platform.mutex_ns." ^ t) "ns" c) mutexes
  @ [ m "platform.words_per_lock" "words" (snd (List.assoc "default" mutexes));
      m "platform.sem_pv_ns.strong" "ns" (sem `Strong);
      m "platform.sem_pv_ns.weak" "ns" (sem `Weak);
      (let c = PCond.create () in
       m "platform.cond_signal_ns" "ns" (ns sc (fun () -> PCond.signal c)));
      m "platform.cond_handoff_us" "us"
        (Stat.median
           (List.init sc.repeats (fun _ ->
                cond_handoff_us ~iters:(sc.samples * 25)))) ]
  @ List.map (fun (p, (late, _)) -> m ("platform.timed_wait_late_us." ^ p) "us" late) waits
  @ List.map (fun (p, (_, cpu)) -> m ("platform.timed_wait_cpu_us." ^ p) "us" cpu) waits
  @ [ (let a = Atomic.make 0 in
       m "platform.atomic_cas_pair_ns" "ns"
         (ns sc (fun () ->
              ignore (Atomic.compare_and_set a 0 1);
              ignore (Atomic.compare_and_set a 1 0))));
      (let mu = Stdlib.Mutex.create () in
       m "platform.stdlib_mutex_ns" "ns"
         (ns sc (fun () -> Stdlib.Mutex.lock mu; Stdlib.Mutex.unlock mu))) ]

(* -- trace ---------------------------------------------------------- *)

let trace sc =
  Probe.reset ();
  Probe.enable ();
  let c, w =
    cost sc (fun () ->
        let t0 = Probe.now () in
        Probe.span Probe.Op ~site:"bench.span" ~since:t0 ~arg:0)
  in
  Probe.disable ();
  Probe.reset ();
  [ m "trace.span_ns" "ns" c; m "trace.words_per_span" "words" w ]

(* -- mechanism and problems ----------------------------------------- *)

let regions () =
  [ ("semaphore", let s = Sem.create 1 in fun () -> Sem.p s; Sem.v s);
    ( "monitor",
      let mo = Sync_monitor.Monitor.create () in
      fun () -> Sync_monitor.Monitor.with_monitor mo ignore );
    ( "serializer",
      let s = Sync_serializer.Serializer.create () in
      fun () -> Sync_serializer.Serializer.with_serializer s ignore );
    ( "pathexpr",
      let p = Sync_pathexpr.Pathexpr.of_string "path use end" in
      fun () -> Sync_pathexpr.Pathexpr.run p "use" ignore );
    ("ccr", let r = Sync_ccr.Ccr.create () in fun () -> Sync_ccr.Ccr.region r ignore) ]

let mechanism sc =
  let costs = List.map (fun (name, f) -> (name, cost sc f)) (regions ()) in
  List.map (fun (n, (c, _)) -> m ("mechanism.enter_exit_ns." ^ n) "ns" c) costs
  @ List.map (fun (n, (_, w)) -> m ("mechanism.words_per_op." ^ n) "words" w) costs

let bb_pair (module B : P.Bb_intf.S) =
  let ring = Sync_resources.Ring.create ~work:0 8 in
  let t =
    B.create ~capacity:8
      ~put:(fun ~pid:_ v -> Sync_resources.Ring.put ring v)
      ~get:(fun ~pid:_ -> Sync_resources.Ring.get ring)
  in
  fun () ->
    B.put t ~pid:0 1;
    ignore (B.get t ~pid:0)

let rw_read (module R : P.Rw_intf.S) =
  let store = Sync_resources.Store.create () in
  let t =
    R.create
      ~read:(fun ~pid:_ -> Sync_resources.Store.read store)
      ~write:(fun ~pid:_ -> Sync_resources.Store.write store)
  in
  fun () -> ignore (R.read t ~pid:0)

let problems sc =
  let bb =
    [ ("semaphore", bb_pair (module P.Bb_sem)); ("monitor", bb_pair (module P.Bb_mon));
      ("serializer", bb_pair (module P.Bb_ser)); ("pathexpr", bb_pair (module P.Bb_path));
      ("ccr", bb_pair (module P.Bb_ccr)) ]
  in
  let rw =
    [ ("semaphore", rw_read (module P.Rw_sem.Readers_prio_baton));
      ("monitor", rw_read (module P.Rw_mon.Readers_prio));
      ("serializer", rw_read (module P.Rw_ser.Readers_prio));
      ("pathexpr", rw_read (module P.Rw_path.Fig1));
      ("ccr", rw_read (module P.Rw_ccr.Readers_prio)) ]
  in
  List.map (fun (n, f) -> m ("problems.bb_put_get_ns." ^ n) "ns" (ns sc f)) bb
  @ List.map (fun (n, f) -> m ("problems.rw_read_ns." ^ n) "ns" (ns sc f)) rw

(* -- workload ------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable checks : string list }

let workload sc tally ~seed =
  let short w mechanism r =
    let s =
      Inproc.round w ~mechanism ~seed:((seed * 100) + r) ~warmup_ms:(sc.load_ms / 5)
        ~duration_ms:sc.load_ms
    in
    tally.attempted <- tally.attempted + s.ops + s.failures;
    tally.failed <- tally.failed + s.failures;
    s
  in
  let bb = List.map (fun mech -> (mech, short Inproc.bb_uncontended mech 0)) Inproc.five in
  let quantiles =
    List.concat_map
      (fun (name, f) ->
        List.map
          (fun (mech, (s : Inproc.sample)) ->
            m (Printf.sprintf "op_%s_ns.%s" name mech) "ns" (float_of_int (f s)))
          bb)
      [ ("p50", fun (s : Inproc.sample) -> s.p50_ns);
        ("p99", fun (s : Inproc.sample) -> s.p99_ns);
        ("p999", fun (s : Inproc.sample) -> s.p999_ns) ]
  in
  let contended =
    List.map
      (fun mech ->
        let rates =
          List.init sc.rounds (fun r -> (short Inproc.rw_contended mech r).ops_per_s)
        in
        let top = List.fold_left Float.max 0.0 rates in
        ( m ("contended.ops_per_s." ^ mech) "1/s" (Stat.median rates),
          m ("contended.fast_rounds." ^ mech) "count"
            (float_of_int (List.length (List.filter (fun x -> x >= top /. 2.0) rates))) ))
      [ "monitor"; "semaphore" ]
  in
  let record_ns =
    let r = Recorder.create ~ops:[| "op" |] () in
    ns sc (fun () -> Recorder.record r ~op:0 ~ns:1000)
  in
  quantiles
  @ List.map fst contended @ List.map snd contended
  @ [ m "metrics.record_ns" "ns" record_ns ]

(* -- serve ---------------------------------------------------------- *)

let serve_ops = [ "put"; "get"; "seek"; "sleep"; "kv.get"; "kv.put" ]

let far () = Int64.add (Sync_platform.Clock.now_ns ()) 3_600_000_000_000L

(* [Service.handle] in-process, no wire. Puts and gets are timed in
   alternating batches so the queue never fills or drains. *)
let handle_ns sc =
  let svc = Service.create () in
  let h req = ignore (Service.handle svc ~deadline_end_ns:(far ()) req) in
  let batch = 32 in
  let timed f =
    let t0 = ns_of () in
    for _ = 1 to batch do
      f ()
    done;
    float_of_int (ns_of () - t0) /. float_of_int batch
  in
  let put_get =
    List.init (sc.samples * 10) (fun _ ->
        let p = timed (fun () -> h (Wire.Q_put "x")) in
        let g = timed (fun () -> h Wire.Q_get) in
        (p, g))
  in
  h (Wire.S_seek 0);
  let r =
    [ ("put", Stat.median (List.map fst put_get));
      ("get", Stat.median (List.map snd put_get));
      ("seek", ns sc (fun () -> h (Wire.S_seek 0)));
      ("kv.get", ns sc (fun () -> h (Wire.K_get "k1")));
      ("kv.put", ns sc (fun () -> h (Wire.K_put ("k1", "v1")))) ]
  in
  Service.stop svc;
  r

let codec_ns sc =
  let req = Wire.K_put ("k1", "v1") and reply = Wire.Ok "v1" in
  ns sc (fun () ->
      ignore (Wire.decode_request (Wire.encode_request ~deadline_ns:50_000_000L req));
      ignore (Wire.decode_reply (Wire.encode_reply reply)))

let us_of_ns n = float_of_int n /. 1e3

(* Round trips on one connection: ping, connect+close, and how late a
   two-tick sleep returns. *)
let client_rungs sc tally (d : Serve.daemon) =
  let sa = Serve.sockaddr d in
  let timed f = List.init sc.samples (fun _ -> let t0 = ns_of () in f (); us_of_ns (ns_of () - t0)) in
  let fail what =
    tally.failed <- tally.failed + 1;
    tally.checks <- ("serve ladder: " ^ what) :: tally.checks
  in
  let connect_us =
    timed (fun () ->
        tally.attempted <- tally.attempted + 1;
        match Client.connect sa with Ok c -> Client.close c | Error e -> fail e)
  in
  match Client.connect sa with
  | Error e ->
    fail e;
    (nan, Stat.median connect_us, nan)
  | Ok c ->
    let ask req =
      tally.attempted <- tally.attempted + 1;
      match Client.request c ~deadline_ns:1_000_000_000L req with
      | Ok (Wire.Ok _) -> ()
      | _ -> fail (Wire.op_name req ^ " was not answered Ok")
    in
    let ping = timed (fun () -> ask Wire.Ping) in
    let tick_us = float_of_int Service.default_config.tick_ms *. 1e3 in
    let late = List.map (fun t -> t -. (2.0 *. tick_us)) (timed (fun () -> ask (Wire.T_sleep 2))) in
    Client.close c;
    (Stat.median ping, Stat.median connect_us, Stat.median late)

let serve sc tally ~seed =
  let handles = handle_ns sc in
  let codec = codec_ns sc in
  let drive d =
    let s =
      Serve.drive d `Mix ~seed
        ~warmup_ms:(sc.drive_ms / 10) ~duration_ms:sc.drive_ms
    in
    tally.attempted <- tally.attempted + Serve.requests s.Serve.outcome;
    tally.failed <- tally.failed + Serve.not_ok s.Serve.outcome + s.Serve.outcome.hung;
    s
  in
  let stop d =
    let st = Serve.stop d in
    if not st.Serve.drain_clean then begin
      tally.failed <- tally.failed + 1;
      tally.checks <- "serve ladder: daemon drain was not clean" :: tally.checks
    end;
    st
  in
  (* A fresh daemon: round trips, then a mix drive. *)
  let d = Serve.spawn () in
  let ping, connect, late = client_rungs sc tally d in
  let s = drive d in
  let rss = Box.peak_rss_mb ~pid:(string_of_int d.Serve.pid) in
  let stats = (stop d).Serve.stats in
  (* The same drive against a traced daemon, for the per-site numbers. *)
  let trace = Serve.trace_file () in
  let d = Serve.spawn ~trace () in
  ignore (drive d);
  ignore (stop d);
  let profile = Profile.of_events (Traced.events_of_chrome trace) in
  Sys.remove trace;
  let summary = s.Serve.report.Sync_workload.Report.summary in
  let op_q f op =
    match List.find_opt (fun (o : Summary.op_stats) -> o.op = op) summary.per_op with
    | Some o -> us_of_ns (f o)
    | None -> nan
  in
  let site_p99 kind site =
    match Profile.find_row profile ~site:("serve." ^ site) ~kind with
    | Some r -> us_of_ns (Histogram.quantile r.Profile.hist 0.99)
    | None -> 0.0
  in
  let count n = m n "count" in
  let o = s.Serve.outcome in
  let sites = [ "kv"; "queue"; "timer"; "head" ] in
  [ m "serve.codec_ns" "ns" codec ]
  @ List.map (fun (op, v) -> m ("serve.handle_ns." ^ op) "ns" v) handles
  @ [ m "serve.ping_rtt_us" "us" ping; m "serve.connect_us" "us" connect ]
  @ List.map (fun op -> m ("serve.op_p50_us." ^ op) "us" (op_q (fun o -> o.Summary.p50_ns) op)) serve_ops
  @ List.map (fun op -> m ("serve.op_p99_us." ^ op) "us" (op_q (fun o -> o.Summary.p99_ns) op)) serve_ops
  @ [ m "serve.op_p999_us" "us"
        (us_of_ns (Summary.overall_quantile summary (fun o -> o.Summary.p999_ns)));
      m "serve.timer_late_us" "us" late ]
  @ List.map (fun s -> m ("serve.site_wait_p99_us." ^ s) "us" (site_p99 Probe.Acquire s)) sites
  @ List.map (fun s -> m ("serve.site_hold_p99_us." ^ s) "us" (site_p99 Probe.Hold s)) sites
  @ [ count "serve.retries" (float_of_int o.retries);
      count "serve.reconnects" (float_of_int o.reconnects);
      count "serve.deadline" (float_of_int o.deadline);
      count "serve.overloaded" (float_of_int o.overloaded);
      count "serve.served" (float_of_int (Serve.stat_int stats "served"));
      count "serve.shed" (float_of_int (Serve.stat_int stats "shed"));
      m "serve.rss_mb" "MB" rss ]

(* -- detsched ------------------------------------------------------- *)

let timed_scenarios = [ "ticket-sem-handoff-3t"; "rw-fig1"; "swap-excl-1t1r1f" ]

let detsched sc tally =
  let results =
    List.map (fun s -> Dpor.explore ~max_schedules:sc.dpor_budget s) Dpor.catalog
  in
  List.iter
    (fun (r : Dpor.result) ->
      tally.attempted <- tally.attempted + r.explored;
      (* A budgeted search (the quick ladder) is checked only when it
         completed. *)
      if r.complete || sc.dpor_budget >= full.dpor_budget then
        List.iter
          (fun c ->
            tally.failed <- tally.failed + 1;
            tally.checks <- c :: tally.checks)
          (Dpor.check r))
    results;
  List.map
    (fun (r : Dpor.result) ->
      m ("dpor.classes." ^ r.scen.name) "count" (float_of_int r.explored))
    results
  @ List.filter_map
      (fun (r : Dpor.result) ->
        if List.mem r.scen.name timed_scenarios then
          Some
            (m ("dpor.schedules_per_s." ^ r.scen.name) "1/s"
               (float_of_int r.explored /. r.secs))
        else None)
      results

(* Every rung, bottom up; also the operations attempted and failed and
   the correctness checks that failed along the way. *)
let run sc ~seed =
  let tally = { attempted = 0; failed = 0; checks = [] } in
  let platform = platform sc in
  let trace = trace sc in
  let mechanism = mechanism sc in
  let problems = problems sc in
  let workload = workload sc tally ~seed in
  let serve = serve sc tally ~seed in
  let detsched = detsched sc tally in
  (platform @ trace @ mechanism @ problems @ workload @ serve @ detsched, tally)
