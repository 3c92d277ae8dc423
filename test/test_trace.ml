(* The E21 trace layer's own guarantees: ring wraparound accounting,
   share-nothing recording under concurrent domain writers, the
   zero-allocation disabled path, and the Chrome exporter's JSON staying
   parseable whatever ends up in a site or operation label. *)

module Probe = Sync_trace.Probe
module Profile = Sync_trace.Profile
module Chrome = Sync_trace.Chrome
module Emit = Sync_metrics.Emit

(* Every test runs against the same global probe state; keep each one
   self-contained. *)
let scrubbed f () =
  Probe.disable ();
  Probe.reset ();
  Probe.set_capacity 65536;
  Fun.protect ~finally:(fun () ->
      Probe.disable ();
      Probe.reset ();
      Probe.set_capacity 65536)
    f

let emit n =
  for i = 1 to n do
    Probe.instant Signal ~site:"test" ~arg:i
  done

(* --- ring buffer ------------------------------------------------- *)

let test_wraparound () =
  Probe.set_capacity 16;
  Probe.reset ();
  Probe.enable ();
  emit 40;
  Probe.disable ();
  let events = Probe.snapshot () in
  Alcotest.(check int) "ring retains capacity" 16 (List.length events);
  Alcotest.(check int) "total counts every record" 40 (Probe.total ());
  Alcotest.(check int) "dropped counts overwrites" 24 (Probe.dropped ());
  (* Oldest events were the ones overwritten: the survivors are the tail. *)
  let args = List.map (fun (e : Probe.event) -> e.Probe.arg) events in
  List.iter
    (fun a -> Alcotest.(check bool) "survivor is recent" true (a > 24))
    args

let test_no_wrap () =
  Probe.set_capacity 64;
  Probe.reset ();
  Probe.enable ();
  emit 10;
  Probe.disable ();
  Alcotest.(check int) "all retained" 10 (List.length (Probe.snapshot ()));
  Alcotest.(check int) "nothing dropped" 0 (Probe.dropped ())

let test_reset_clears () =
  Probe.enable ();
  emit 5;
  Probe.disable ();
  Probe.reset ();
  Alcotest.(check int) "snapshot empty" 0 (List.length (Probe.snapshot ()));
  Alcotest.(check int) "total zero" 0 (Probe.total ());
  Alcotest.(check int) "dropped zero" 0 (Probe.dropped ())

(* --- concurrent writers ------------------------------------------ *)

let test_domain_writers () =
  let writers = 4 and per_writer = 5000 in
  Probe.reset ();
  Probe.enable ();
  let doms =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to per_writer do
              Probe.instant Signal ~site:"dom" ~arg:((w * per_writer) + i)
            done))
  in
  List.iter Domain.join doms;
  Probe.disable ();
  let events = Probe.snapshot () in
  Alcotest.(check int) "every event retained"
    (writers * per_writer)
    (List.length events);
  Alcotest.(check int) "no drops below capacity" 0 (Probe.dropped ());
  (* Share-nothing rings: each writer's own events must survive in full
     and carry its distinct actor id. *)
  let module S = Set.Make (Int) in
  let actors =
    S.elements
      (List.fold_left
         (fun s (e : Probe.event) -> S.add e.Probe.actor s)
         S.empty events)
  in
  Alcotest.(check int) "one actor per writer" writers (List.length actors);
  let args = List.map (fun (e : Probe.event) -> e.Probe.arg) events in
  let distinct = S.cardinal (S.of_list args) in
  Alcotest.(check int) "no event lost or duplicated"
    (writers * per_writer)
    distinct

(* The seqlock read path under fire (the E27 sampler's): four domains
   write flat out while the main thread drains [live_read]
   incrementally through a cursor. A torn slot would surface as an
   event whose fields disagree — every writer stamps its index into
   both the site and the argument — and each ring must deliver its
   events in order, without loss or duplication (nothing wraps here:
   per-writer volume stays under the ring capacity). *)
let test_live_read_hammer () =
  let writers = 4 and per_writer = 50_000 in
  Probe.reset ();
  Probe.enable ();
  let sites = Array.init writers (fun w -> Printf.sprintf "hammer-%d" w) in
  let running = Atomic.make writers in
  let doms =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to per_writer do
              Probe.instant Signal ~site:sites.(w) ~arg:((w * 1_000_000) + i)
            done;
            Atomic.decr running))
  in
  let seen = Array.make writers [] (* consumed args per writer, newest first *)
  and torn = ref 0
  and cursor = ref Probe.start_cursor in
  let consume () =
    let events, next = Probe.live_read !cursor in
    cursor := next;
    List.iter
      (fun (e : Probe.event) ->
        if e.Probe.kind = Probe.Signal then begin
          let w = e.Probe.arg / 1_000_000 in
          if w < 0 || w >= writers || not (String.equal e.Probe.site sites.(w))
          then incr torn
          else seen.(w) <- (e.Probe.arg mod 1_000_000) :: seen.(w)
        end)
      events
  in
  while Atomic.get running > 0 do
    consume ();
    Domain.cpu_relax ()
  done;
  List.iter Domain.join doms;
  consume ();
  Probe.disable ();
  Alcotest.(check int) "no torn slot" 0 !torn;
  Array.iteri
    (fun w l ->
      let l = List.rev l in
      Alcotest.(check int)
        (Printf.sprintf "writer %d delivered in full" w)
        per_writer (List.length l);
      ignore
        (List.fold_left
           (fun prev a ->
             if a <= prev then
               Alcotest.failf "writer %d: arg %d delivered after %d" w a prev;
             a)
           0 l))
    seen

(* Two live threads whose ids collide modulo the 256 buffer-lookup slots
   take turns recording. Each must keep finding its own ring: one ring
   per thread, every event kept, and no ring allocated per turn. Small
   rings keep a regression's allocation bounded (a ring per turn would
   be ~7k words x 2000 turns). *)
let test_slot_collision () =
  let cap = 1024 and per_thread = 1000 in
  Probe.set_capacity cap;
  Probe.reset ();
  let me = Thread.id (Thread.self ()) in
  let turn = Atomic.make 0 and go = Atomic.make false in
  let take_turns side =
    for i = 1 to per_thread do
      while Atomic.get turn <> side do
        Thread.yield ()
      done;
      Probe.instant Signal ~site:"collide" ~arg:((side * per_thread) + i);
      Atomic.set turn (1 - side)
    done
  in
  (* Threads that exit at once until one's id lands in our slot. *)
  let rec colliding () =
    let t =
      Thread.create
        (fun () ->
          while not (Atomic.get go) do
            Thread.yield ()
          done;
          if Thread.id (Thread.self ()) land 255 = me land 255 then
            take_turns 1)
        ()
    in
    if Thread.id t land 255 = me land 255 then t
    else begin
      Atomic.set go true;
      Thread.join t;
      Atomic.set go false;
      colliding ()
    end
  in
  let other = colliding () in
  Probe.enable ();
  (* Both rings exist before measuring. *)
  Probe.instant Signal ~site:"collide" ~arg:0;
  let before = Gc.allocated_bytes () in
  Atomic.set go true;
  take_turns 0;
  Thread.join other;
  let words =
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  Probe.disable ();
  let events = Probe.snapshot () in
  let module S = Set.Make (Int) in
  let actors =
    List.fold_left (fun s (e : Probe.event) -> S.add e.Probe.actor s) S.empty
      events
  in
  Alcotest.(check int) "one actor per thread" 2 (S.cardinal actors);
  Alcotest.(check int) "every event kept" ((2 * per_thread) + 1)
    (List.length events);
  Alcotest.(check int) "nothing dropped" 0 (Probe.dropped ());
  (* A ring is ~7 words per slot. The other thread's first event, inside
     the window, allocates its ring; any further ring breaks the budget. *)
  Alcotest.(check bool)
    (Printf.sprintf "at most one ring allocated while alternating (%.0f words)"
       words)
    true
    (words < float_of_int (2 * 7 * cap))

(* --- disabled path ----------------------------------------------- *)

let test_disabled_no_alloc () =
  Probe.disable ();
  Probe.reset ();
  (* Warm up so any one-time setup is paid before measuring. *)
  for _ = 1 to 100 do
    let t0 = Probe.now () in
    Probe.span Hold ~site:"gc" ~since:t0 ~arg:0;
    Probe.instant Signal ~site:"gc" ~arg:0
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    let t0 = Probe.now () in
    Probe.span Hold ~site:"gc" ~since:t0 ~arg:0;
    Probe.instant Signal ~site:"gc" ~arg:0;
    if Probe.enabled () then Probe.instant Spurious ~site:"gc" ~arg:0
  done;
  let allocated = Gc.minor_words () -. before in
  (* 300k probe calls; the budget tolerates instrumentation noise but
     catches any per-call allocation (which would be >= 2 words each). *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled probes allocate nothing (got %.0f words)"
       allocated)
    true (allocated < 1000.0);
  Alcotest.(check int) "nothing recorded" 0 (Probe.total ())

(* Recording allocates nothing once the thread's ring exists: traced
   lock/unlock round trips (an Acquire and a Hold each) plus instants. *)
let test_enabled_no_alloc () =
  let m = Sync_platform.Mutex.create () in
  let round () =
    Sync_platform.Mutex.lock m;
    Sync_platform.Mutex.unlock m;
    Probe.instant Signal ~site:"gc" ~arg:0
  in
  Probe.reset ();
  Probe.enable ();
  for _ = 1 to 100 do
    round ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    round ()
  done;
  let allocated = Gc.minor_words () -. before in
  Probe.disable ();
  Alcotest.(check bool)
    (Printf.sprintf "enabled probes allocate nothing (got %.0f words)"
       allocated)
    true (allocated < 1000.0);
  Alcotest.(check int) "every event recorded" (3 * 100_100) (Probe.total ())

let test_disabled_now_is_zero () =
  Probe.disable ();
  Alcotest.(check int) "now() is the no-op token" 0 (Probe.now ());
  Probe.enable ();
  let t = Probe.now () in
  Probe.disable ();
  Alcotest.(check bool) "now() real when enabled" true (t > 0)

let test_span_since_zero_ignored () =
  Probe.reset ();
  Probe.enable ();
  Probe.span Hold ~site:"zero" ~since:0 ~arg:0;
  Probe.disable ();
  Alcotest.(check int) "since:0 spans are dropped" 0 (Probe.total ())

(* --- chrome export / JSON escaping ------------------------------- *)

let hostile = "we\"ird\\site\nwith\ttabs & unicode \xe2\x9c\x93 \x01ctl"

let test_chrome_escaping () =
  Probe.reset ();
  Probe.enable ();
  Probe.set_op hostile;
  Probe.instant Signal ~site:hostile ~arg:1;
  let t0 = Probe.now () in
  Probe.span Hold ~site:hostile ~since:t0 ~arg:2;
  Probe.disable ();
  let events = Probe.snapshot () in
  Alcotest.(check int) "both events recorded" 2 (List.length events);
  let json = Chrome.to_json [ ("group \"A\"\n", events) ] in
  let text = Emit.to_string json in
  (* The exporter's output must round-trip through a JSON parser with
     the hostile strings intact. *)
  let doc = Emit.parse text in
  let rec strings acc = function
    | Emit.Str s -> s :: acc
    | Emit.List xs -> List.fold_left strings acc xs
    | Emit.Obj fields ->
      List.fold_left (fun acc (_, v) -> strings acc v) acc fields
    | _ -> acc
  in
  let all = strings [] doc in
  Alcotest.(check bool) "hostile site survives round-trip" true
    (List.exists (fun s -> s = hostile) all);
  match Emit.member "traceEvents" doc with
  | Some (Emit.List evs) ->
    Alcotest.(check bool) "trace has events" true (List.length evs > 0)
  | _ -> Alcotest.fail "no traceEvents array"

let test_parse_unicode_escape () =
  (match Emit.parse "\"a\\u00e9\\u2713b\\u0041\"" with
  | Emit.Str s -> Alcotest.(check string) "decoded utf-8" "a\xc3\xa9\xe2\x9c\x93bA" s
  | _ -> Alcotest.fail "expected string");
  match Emit.parse "{\"k\\\"ey\": [1, 2.5, true, null]}" with
  | Emit.Obj [ ("k\"ey", Emit.List [ Emit.Int 1; Emit.Float f; Emit.Bool true; Emit.Null ]) ]
    ->
    Alcotest.(check (float 0.0001)) "float" 2.5 f
  | _ -> Alcotest.fail "structure mismatch"

(* --- profile aggregation ----------------------------------------- *)

let test_profile_aggregation () =
  Probe.reset ();
  Probe.enable ();
  let t0 = Probe.now () in
  Probe.span Hold ~site:"m" ~since:t0 ~arg:0;
  let t1 = Probe.now () in
  Probe.span Hold ~site:"m" ~since:t1 ~arg:0;
  let t2 = Probe.now () in
  Probe.span Wait ~site:"q" ~since:t2 ~arg:3;
  Probe.instant Signal ~site:"q" ~arg:2;
  Probe.instant Handoff ~site:"q" ~arg:1;
  Probe.instant Spurious ~site:"q" ~arg:0;
  Probe.instant Abandon ~site:"q" ~arg:77;
  Probe.disable ();
  let p = Profile.of_events ~dropped:0 (Probe.snapshot ()) in
  (match Profile.find_row p ~site:"m" ~kind:Probe.Hold with
  | Some row ->
    Alcotest.(check int) "two hold spans on m" 2 row.Profile.count
  | None -> Alcotest.fail "missing m/Hold row");
  (match Profile.find_row p ~site:"q" ~kind:Probe.Wait with
  | Some row -> Alcotest.(check int) "one wait span on q" 1 row.Profile.count
  | None -> Alcotest.fail "missing q/Wait row");
  let w = p.Profile.wake in
  Alcotest.(check int) "signals" 1 w.Profile.signals;
  Alcotest.(check int) "handoffs" 1 w.Profile.handoffs;
  Alcotest.(check int) "spurious" 1 w.Profile.spurious;
  Alcotest.(check int) "abandoned" 1 w.Profile.abandoned;
  Alcotest.(check int) "max queue depth from wait args" 3 w.Profile.max_queue

(* A successful try_lock is a zero-wait acquire: it must show up in
   profiled acquire counts (the E22 observability satellite), and the
   eventual unlock must close the hold span it opened. Covered on both
   substrate tiers, since each has its own try_lock path. *)
let test_try_lock_emits_acquire () =
  let check_tier label mk =
    Probe.reset ();
    Probe.enable ();
    let m = mk () in
    Alcotest.(check bool) (label ^ ": acquired") true
      (Sync_platform.Mutex.try_lock m);
    Sync_platform.Mutex.unlock m;
    Probe.disable ();
    let p = Profile.of_events ~dropped:0 (Probe.snapshot ()) in
    (match Profile.find_row p ~site:"mutex" ~kind:Probe.Acquire with
    | Some row ->
      Alcotest.(check int) (label ^ ": one acquire span") 1 row.Profile.count
    | None -> Alcotest.failf "%s: try_lock emitted no Acquire span" label);
    match Profile.find_row p ~site:"mutex" ~kind:Probe.Hold with
    | Some row ->
      Alcotest.(check int) (label ^ ": one hold span") 1 row.Profile.count
    | None -> Alcotest.failf "%s: unlock emitted no Hold span" label
  in
  check_tier "default" (fun () -> Sync_platform.Mutex.create ());
  check_tier "fast" (fun () ->
      Sync_platform.Fastpath.with_enabled (fun () ->
          Sync_platform.Mutex.create ()))

(* --- end to end: a traced load run ------------------------------- *)

let test_traced_monitor_load () =
  match
    Sync_workload.Target.create ~problem:"bounded-buffer" ~mechanism:"monitor"
      ()
  with
  | Error e -> Alcotest.fail e
  | Ok instance ->
    let cfg =
      { Sync_workload.Loadgen.default_config with
        Sync_workload.Loadgen.workers = 3;
        backend = `Thread;
        duration_ms = 30;
        warmup_ms = 5 }
    in
    let report, events =
      Probe.with_tracing (fun () ->
          Sync_workload.Loadgen.run instance cfg)
    in
    let s = report.Sync_workload.Report.summary in
    Alcotest.(check int) "no self-check failures" 0
      s.Sync_metrics.Summary.total_failures;
    Alcotest.(check bool) "trace captured events" true (events <> []);
    let has k =
      List.exists (fun (e : Probe.event) -> e.Probe.kind = k) events
    in
    Alcotest.(check bool) "op spans present" true (has Probe.Op);
    Alcotest.(check bool) "monitor hold spans present" true
      (List.exists
         (fun (e : Probe.event) ->
           e.Probe.kind = Probe.Hold && e.Probe.site = "monitor")
         events);
    Alcotest.(check bool) "wake instants present" true
      (has Probe.Signal || has Probe.Handoff);
    (* Op labels stamped by the load engine reach the events. *)
    Alcotest.(check bool) "op labels stamped" true
      (List.exists (fun (e : Probe.event) -> e.Probe.op <> "") events)

(* The event stream each bench mechanism records per bounded-buffer op,
   uncontended: a cheaper recording path must keep every event. The
   table is per op (put and get record the same multiset). Uncontended,
   a serializer [enqueue] admits directly, so no queue event appears. *)
let bb_stream =
  [ ("semaphore", [ (Probe.Acquire, "sem.lock", 4); (Hold, "sem.lock", 4) ]);
    ( "monitor",
      [ (Acquire, "monitor", 2); (Acquire, "monitor.lock", 4);
        (Hold, "monitor", 2); (Hold, "monitor.lock", 4);
        (Op, "protected.access", 1) ] );
    ( "serializer",
      [ (Acquire, "serializer.entry", 1); (Acquire, "serializer.lock", 5);
        (Hold, "serializer", 1); (Hold, "serializer.lock", 5) ] );
    ( "pathexpr",
      [ (Acquire, "sem.lock", 4); (Hold, "sem.lock", 4);
        (Op, "pathexpr.op", 1) ] );
    ( "ccr",
      [ (Acquire, "ccr.lock", 2); (Hold, "ccr.lock", 2);
        (Hold, "ccr.region", 2) ] ) ]

let test_event_stream_pin () =
  let module Target = Sync_workload.Target in
  let rounds = 3 and me = Thread.id (Thread.self ()) in
  List.iter
    (fun (mechanism, per_op) ->
      match Target.create ~problem:"bounded-buffer" ~mechanism () with
      | Error e -> Alcotest.fail e
      | Ok inst ->
        let rng = Sync_platform.Prng.make 1L in
        Probe.reset ();
        Probe.enable ();
        for _ = 1 to rounds do
          Array.iter
            (fun (o : Target.op) ->
              Probe.set_op o.Target.name;
              o.Target.run ~rng ~pid:0)
            inst.Target.ops
        done;
        Probe.disable ();
        inst.Target.stop ();
        let events = Probe.snapshot () in
        List.iter
          (fun (e : Probe.event) ->
            Alcotest.(check int) (mechanism ^ ": actor stamped") me
              e.Probe.actor)
          events;
        let expected =
          List.concat_map
            (fun (k, site, n) ->
              List.init (n * rounds) (fun _ -> (Probe.kind_to_string k, site)))
            per_op
          |> List.sort compare
        in
        (* Every event carries one of the ops' labels: the per-op streams
           add up to all of them. *)
        Array.iter
          (fun (o : Target.op) ->
            let op = o.Target.name in
            let got =
              List.filter_map
                (fun (e : Probe.event) ->
                  if String.equal e.Probe.op op then
                    Some (Probe.kind_to_string e.Probe.kind, e.Probe.site)
                  else None)
                events
            in
            Alcotest.(check (list (pair string string)))
              (Printf.sprintf "%s %s stream" mechanism op)
              expected (List.sort compare got))
          inst.Target.ops;
        Alcotest.(check int) (mechanism ^ ": every event op-stamped")
          (Array.length inst.Target.ops * List.length expected)
          (List.length events))
    bb_stream

let test_actor_label () =
  Alcotest.(check string) "thread label" "t12" (Probe.actor_label 12);
  Alcotest.(check string) "virtual label" "v3" (Probe.actor_label (-4))

let () =
  Alcotest.run "trace"
    [ ( "ring",
        [ Alcotest.test_case "wraparound" `Quick (scrubbed test_wraparound);
          Alcotest.test_case "no-wrap" `Quick (scrubbed test_no_wrap);
          Alcotest.test_case "reset" `Quick (scrubbed test_reset_clears) ] );
      ( "concurrency",
        [ Alcotest.test_case "domain-writers" `Quick
            (scrubbed test_domain_writers);
          Alcotest.test_case "live-read hammer" `Quick
            (scrubbed test_live_read_hammer);
          Alcotest.test_case "slot collision" `Quick
            (scrubbed test_slot_collision) ] );
      ( "disabled",
        [ Alcotest.test_case "zero-allocation" `Quick
            (scrubbed test_disabled_no_alloc);
          Alcotest.test_case "now-token" `Quick
            (scrubbed test_disabled_now_is_zero);
          Alcotest.test_case "since-zero" `Quick
            (scrubbed test_span_since_zero_ignored) ] );
      ( "enabled",
        [ Alcotest.test_case "zero-allocation" `Quick
            (scrubbed test_enabled_no_alloc) ] );
      ( "export",
        [ Alcotest.test_case "chrome-escaping" `Quick
            (scrubbed test_chrome_escaping);
          Alcotest.test_case "parse-unicode" `Quick
            (scrubbed test_parse_unicode_escape) ] );
      ( "profile",
        [ Alcotest.test_case "try-lock-acquire-span" `Quick
            (scrubbed test_try_lock_emits_acquire);
          Alcotest.test_case "aggregation" `Quick
            (scrubbed test_profile_aggregation) ] );
      ( "load",
        [ Alcotest.test_case "traced-monitor-run" `Quick
            (scrubbed test_traced_monitor_load);
          Alcotest.test_case "bb event-stream pin" `Quick
            (scrubbed test_event_stream_pin);
          Alcotest.test_case "actor-labels" `Quick (scrubbed test_actor_label) ]
      ) ]
