(* The same core invariants under OCaml 5 domains (true parallelism),
   exercising the repro band's requirement: the mechanisms must be
   correct for parallel execution, not only for interleaved threads. *)

open Sync_platform

let check_int = Alcotest.(check int)

let run_domains fs = Process.run_all ~backend:`Domain fs

let test_semaphore_exclusion () =
  let s = Semaphore.Counting.create 1 in
  let g = Testutil.Gauge.create () in
  let worker () =
    for _ = 1 to 200 do
      Semaphore.Counting.p s;
      Testutil.Gauge.enter g;
      Domain.cpu_relax ();
      Testutil.Gauge.leave g;
      Semaphore.Counting.v s
    done
  in
  run_domains [ worker; worker; worker ];
  check_int "exclusive" 1 (Testutil.Gauge.max g)

let test_monitor_exclusion () =
  let m = Sync_monitor.Monitor.create () in
  let g = Testutil.Gauge.create () in
  let worker () =
    for _ = 1 to 200 do
      Sync_monitor.Monitor.with_monitor m (fun () ->
          Testutil.Gauge.enter g;
          Domain.cpu_relax ();
          Testutil.Gauge.leave g)
    done
  in
  run_domains [ worker; worker; worker ];
  check_int "exclusive" 1 (Testutil.Gauge.max g)

let test_serializer_exclusion () =
  let s = Sync_serializer.Serializer.create () in
  let g = Testutil.Gauge.create () in
  let worker () =
    for _ = 1 to 200 do
      Sync_serializer.Serializer.with_serializer s (fun () ->
          Testutil.Gauge.enter g;
          Domain.cpu_relax ();
          Testutil.Gauge.leave g)
    done
  in
  run_domains [ worker; worker; worker ];
  check_int "exclusive" 1 (Testutil.Gauge.max g)

let test_pathexpr_exclusion () =
  let p = Sync_pathexpr.Pathexpr.of_string "path a , b end" in
  let g = Testutil.Gauge.create () in
  let worker op () =
    for _ = 1 to 100 do
      Sync_pathexpr.Pathexpr.run p op (fun () ->
          Testutil.Gauge.enter g;
          Domain.cpu_relax ();
          Testutil.Gauge.leave g)
    done
  in
  run_domains [ worker "a"; worker "b" ];
  check_int "exclusive" 1 (Testutil.Gauge.max g)

let test_monitor_producer_consumer () =
  let ring = Sync_resources.Ring.create ~work:10 4 in
  let buffer =
    Sync_problems.Bb_mon.create ~capacity:4
      ~put:(fun ~pid:_ v -> Sync_resources.Ring.put ring v)
      ~get:(fun ~pid:_ -> Sync_resources.Ring.get ring)
  in
  let n = 300 in
  let sum = Atomic.make 0 in
  run_domains
    [ (fun () ->
        for k = 1 to n do
          Sync_problems.Bb_mon.put buffer ~pid:0 k
        done);
      (fun () ->
        for _ = 1 to n do
          ignore
            (Atomic.fetch_and_add sum (Sync_problems.Bb_mon.get buffer ~pid:1))
        done) ];
  check_int "all items transferred" (n * (n + 1) / 2) (Atomic.get sum)

let test_csp_rendezvous () =
  let net = Sync_csp.Csp.network () in
  let ch = Sync_csp.Csp.Channel.create net in
  let sum = Atomic.make 0 in
  run_domains
    [ (fun () -> for i = 1 to 100 do Sync_csp.Csp.send ch i done);
      (fun () ->
        for _ = 1 to 100 do
          ignore (Atomic.fetch_and_add sum (Sync_csp.Csp.recv ch))
        done) ];
  check_int "all values received" 5050 (Atomic.get sum)

let solutions_bb : (string * (module Sync_problems.Bb_intf.S)) list =
  [ ("semaphore", (module Sync_problems.Bb_sem));
    ("monitor", (module Sync_problems.Bb_mon));
    ("serializer", (module Sync_problems.Bb_ser));
    ("pathexpr", (module Sync_problems.Bb_path));
    ("ccr", (module Sync_problems.Bb_ccr));
    ("eventcount", (module Sync_problems.Bb_evc)) ]

let bb_domain_tests =
  List.map
    (fun (name, m) ->
      Alcotest.test_case name `Quick (fun () ->
          match
            Sync_problems.Bb_harness.verify ~backend:`Domain ~capacity:3
              ~producers:2 ~consumers:2 ~items_per_producer:20 m
          with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" name msg))
    solutions_bb

let rw_domain_tests =
  List.map
    (fun (name, m) ->
      Alcotest.test_case name `Quick (fun () ->
          match
            Sync_problems.Rw_harness.verify_exclusion ~backend:`Domain
              ~readers:3 ~writers:2 ~reads_each:20 ~writes_each:6 m
          with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" name msg))
    [ ("monitor", (module Sync_problems.Rw_mon.Readers_prio
         : Sync_problems.Rw_intf.S));
      ("serializer", (module Sync_problems.Rw_ser.Readers_prio));
      ("pathexpr-fig2", (module Sync_problems.Rw_path.Fig2));
      ("ccr", (module Sync_problems.Rw_ccr.Readers_prio));
      ("csp", (module Sync_problems.Rw_csp.Readers_prio)) ]

(* The E20 engine on real domains: a short closed-loop run must make
   progress, lose no recorded operation, and leave the self-checking
   resource happy (any exclusion violation records as a failure). *)
let test_loadgen_on_domains () =
  match
    Sync_workload.Target.create ~problem:"bounded-buffer" ~mechanism:"monitor"
      ()
  with
  | Error e -> Alcotest.failf "target: %s" e
  | Ok instance ->
    let cfg =
      { Sync_workload.Loadgen.workers = 3; backend = `Domain;
        duration_ms = 80; warmup_ms = 20;
        mode = Sync_workload.Loadgen.Closed; seed = 11; think_us = 0 }
    in
    let report = Sync_workload.Loadgen.run instance cfg in
    let s = report.Sync_workload.Report.summary in
    Alcotest.(check bool) "made progress" true
      (s.Sync_metrics.Summary.total_ops > 0);
    check_int "no failures" 0 s.Sync_metrics.Summary.total_failures;
    (* Cycle targets keep per-worker put/get balance, so the merged
       counts differ by at most the worker count *)
    (match s.Sync_metrics.Summary.per_op with
    | [ put; get ] ->
      Alcotest.(check bool) "puts ~ gets" true
        (abs (put.Sync_metrics.Summary.count - get.Sync_metrics.Summary.count)
         <= cfg.Sync_workload.Loadgen.workers)
    | _ -> Alcotest.fail "expected put/get ops")

(* The E22 fast tier under true parallelism: the adaptive mutex and the
   fetch-and-add weak semaphore must keep their invariants across a
   4-domain storm, where CAS races and parked handoffs actually occur. *)
let test_fast_mutex_exclusion_domains () =
  let m = Fastpath.with_enabled (fun () -> Mutex.create ()) in
  let g = Testutil.Gauge.create () in
  let count = ref 0 in
  let iters = 500 in
  let worker () =
    for _ = 1 to iters do
      Mutex.lock m;
      Testutil.Gauge.enter g;
      incr count;
      Domain.cpu_relax ();
      Testutil.Gauge.leave g;
      Mutex.unlock m
    done
  in
  run_domains [ worker; worker; worker; worker ];
  check_int "exclusive" 1 (Testutil.Gauge.max g);
  check_int "no lost increments" (4 * iters) !count

let test_fast_weak_sem_domains () =
  let k = 2 in
  let s =
    Fastpath.with_enabled (fun () ->
        Semaphore.Counting.create ~fairness:`Weak k)
  in
  let g = Testutil.Gauge.create () in
  let worker () =
    for _ = 1 to 500 do
      Semaphore.Counting.p s;
      Testutil.Gauge.enter g;
      Domain.cpu_relax ();
      Testutil.Gauge.leave g;
      Semaphore.Counting.v s
    done
  in
  run_domains [ worker; worker; worker; worker ];
  Alcotest.(check bool) "at most k holders" true (Testutil.Gauge.max g <= k);
  check_int "units conserved" k (Semaphore.Counting.value s)

(* A fast-tier workload cell end to end: the full stack (Fastring,
   adaptive mutex, fast conditions) must record zero failures — the
   self-checking resource turns any exclusion slip into a failure. *)
let test_loadgen_fast_tier_on_domains () =
  match
    Sync_workload.Target.create ~tier:`Fast ~problem:"bounded-buffer"
      ~mechanism:"eventcount" ()
  with
  | Error e -> Alcotest.failf "target: %s" e
  | Ok instance ->
    Alcotest.(check string) "tier recorded" "fast"
      instance.Sync_workload.Target.tier;
    let cfg =
      { Sync_workload.Loadgen.workers = 4; backend = `Domain;
        duration_ms = 80; warmup_ms = 20;
        mode = Sync_workload.Loadgen.Closed; seed = 11; think_us = 0 }
    in
    let report = Sync_workload.Loadgen.run instance cfg in
    let s = report.Sync_workload.Report.summary in
    Alcotest.(check string) "report carries the tier" "fast"
      report.Sync_workload.Report.tier;
    Alcotest.(check bool) "made progress" true
      (s.Sync_metrics.Summary.total_ops > 0);
    check_int "no failures" 0 s.Sync_metrics.Summary.total_failures

(* Run [fs] on domains; fail if they have not all returned within
   [bound] seconds (a lost wakeup hangs them, so they are then left
   unjoined). *)
let within ~bound what fs =
  let left = Atomic.make (List.length fs) in
  let ds =
    List.map (fun f -> Domain.spawn (fun () -> f (); Atomic.decr left)) fs
  in
  let t0 = Clock.now_ns () in
  while
    Atomic.get left > 0 && Int64.to_float (Clock.elapsed_ns t0) < bound *. 1e9
  do
    Thread.delay 0.01
  done;
  if Atomic.get left > 0 then
    Alcotest.failf "%s: not done after %.0f s" what bound;
  List.iter Domain.join ds

(* Lost wakeups: two domains pass a turn 100k times through one mutex
   and condition. The turn flips under the lock and the signal goes out
   after the unlock, so a waiter's spin can end, and its park begin,
   while a signal is in flight. *)
let test_turn_passing rounds () =
  Testutil.with_spin_rounds rounds (fun () ->
      let m = Mutex.create () and c = Condition.create () in
      let turn = ref 0 in
      let player me () =
        for _ = 1 to 100_000 do
          Mutex.lock m;
          Condition.await c m ~site:"turn" (fun () -> !turn = me);
          turn := 1 - me;
          Mutex.unlock m;
          Condition.signal c
        done
      in
      within ~bound:60.0
        (Printf.sprintf "turn passing at spin_rounds %d" rounds)
        [ player 0; player 1 ])

(* Exclusion with the default tier's spin: unguarded increments under
   the lock from two domains sum exactly. *)
let test_default_exclusion () =
  let m = Mutex.create () in
  let n = ref 0 in
  let worker () =
    for _ = 1 to 1_000_000 do
      Mutex.lock m;
      n := !n + 1;
      Mutex.unlock m
    done
  in
  within ~bound:60.0 "2 x 1M increments" [ worker; worker ];
  check_int "every increment counted" 2_000_000 !n

let () =
  Alcotest.run "domains"
    [ ( "parallel-invariants",
        [ Alcotest.test_case "semaphore exclusion" `Quick
            test_semaphore_exclusion;
          Alcotest.test_case "monitor exclusion" `Quick test_monitor_exclusion;
          Alcotest.test_case "serializer exclusion" `Quick
            test_serializer_exclusion;
          Alcotest.test_case "pathexpr exclusion" `Quick
            test_pathexpr_exclusion;
          Alcotest.test_case "monitor producer/consumer" `Quick
            test_monitor_producer_consumer;
          Alcotest.test_case "csp rendezvous" `Quick test_csp_rendezvous ] );
      ("bounded-buffer-on-domains", bb_domain_tests);
      ("readers-writers-on-domains", rw_domain_tests);
      ( "load-engine-on-domains",
        [ Alcotest.test_case "closed-loop smoke" `Quick
            test_loadgen_on_domains ] );
      ( "spin-then-park-on-domains",
        [ Alcotest.test_case "turn passing, default spin" `Quick
            (test_turn_passing (Mutex.spin_rounds ()));
          Alcotest.test_case "turn passing, no spin" `Quick
            (test_turn_passing 0);
          Alcotest.test_case "default-tier exclusion" `Quick
            test_default_exclusion ] );
      ( "fast-tier-on-domains",
        [ Alcotest.test_case "fast mutex exclusion" `Quick
            test_fast_mutex_exclusion_domains;
          Alcotest.test_case "fast weak semaphore conservation" `Quick
            test_fast_weak_sem_domains;
          Alcotest.test_case "fast-tier closed-loop cell" `Quick
            test_loadgen_fast_tier_on_domains ] ) ]
