(* Disk-head scheduler and alarm clock across all five mechanisms. *)
open Sync_problems

let check_result name = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg

let disk_solutions : (string * (module Disk_intf.S)) list =
  [ ("semaphore", (module Disk_sem)); ("monitor", (module Disk_mon));
    ("serializer", (module Disk_ser)); ("pathexpr", (module Disk_path));
    ("csp", (module Disk_csp)); ("ccr", (module Disk_ccr)) ]

let alarm_solutions : (string * (module Alarm_intf.S)) list =
  [ ("semaphore", (module Alarm_sem)); ("monitor", (module Alarm_mon));
    ("serializer", (module Alarm_ser)); ("pathexpr", (module Alarm_path));
    ("csp", (module Alarm_csp)); ("ccr", (module Alarm_ccr));
    ("eventcount", (module Alarm_evc)) ]

let disk_scan (name, m) () = check_result name (Disk_harness.verify_scan m)

let disk_scan_below (name, m) () =
  (* A batch that is entirely below the head: one reversal, pure descent. *)
  check_result name
    (Disk_harness.verify_scan ~batch:[ 40; 10; 30; 5; 25 ] m)

let disk_scan_mixed_edges (name, m) () =
  check_result name (Disk_harness.verify_scan ~batch:[ 0; 99; 50; 51; 49 ] m)

(* Broken control: arrival order is not SCAN, so the staged check must
   catch the FCFS baseline on the default batch (quiescence cannot make
   the check vacuous). *)
let disk_fcfs_fails_scan () =
  match Disk_harness.verify_scan (module Disk_fcfs) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "the FCFS baseline passed the SCAN check"

let disk_stress (name, m) () = check_result name (Disk_harness.verify_stress m)

let disk_fcfs_baseline_serves_all () =
  check_result "fcfs-baseline" (Disk_harness.verify_stress (module Disk_fcfs))

(* SCAN must beat FCFS on arm travel for a common random workload. *)
let test_scan_beats_fcfs_travel () =
  (* A long-held disk (large work) guarantees a request backlog even on
     one core; with ~8 pending requests SCAN must clearly beat arrival
     order on arm travel. *)
  let travel m =
    fst
      (Disk_harness.run_stress m ~tracks:400 ~workers:8 ~requests_each:25
         ~hold_s:0.002 ~seed:5L ())
  in
  let scan = travel (module Disk_mon) in
  let fcfs = travel (module Disk_fcfs) in
  if scan * 10 >= fcfs * 8 then
    Alcotest.failf "SCAN travel %d not clearly better than FCFS travel %d"
      scan fcfs

let alarm_exact (name, m) () = check_result name (Alarm_harness.verify m)

let alarm_same_deadlines (name, m) () =
  check_result name
    (Alarm_harness.verify ~durations:[ 2; 2; 2; 1; 1; 3 ] m)

(* Broken control: an alarm clock that wakes every sleeper at the first
   tick, whatever its deadline, must fail the exact tick-by-tick check. *)
module Alarm_wake_all : Alarm_intf.S = struct
  open Sync_platform

  type t = { m : Mutex.t; ticked : Condition.t; mutable now : int }

  let mechanism = "wake-all"

  let create () =
    { m = Mutex.create (); ticked = Condition.create (); now = 0 }

  let wakeme t ~pid n =
    ignore pid;
    if n > 0 then begin
      Mutex.lock t.m;
      let start = t.now in
      while t.now = start do
        Condition.wait t.ticked t.m
      done;
      Mutex.unlock t.m
    end

  let tick t =
    Mutex.lock t.m;
    t.now <- t.now + 1;
    Condition.broadcast t.ticked;
    Mutex.unlock t.m

  let now t = Mutex.protect t.m (fun () -> t.now)

  let stop _ = ()

  let meta = Alarm_mon.meta
end

let alarm_wake_all_fails () =
  match Alarm_harness.verify (module Alarm_wake_all) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "waking every sleeper at the first tick passed"

let alarm_zero (name, m) () = check_result name (Alarm_harness.verify_zero m)

let suite solutions mk =
  List.map
    (fun (name, m) -> Alcotest.test_case name `Quick (mk (name, m)))
    solutions

let () =
  Alcotest.run "problems-sched"
    [ ("disk-scan", suite disk_solutions disk_scan);
      ("disk-scan-below", suite disk_solutions disk_scan_below);
      ("disk-scan-edges", suite disk_solutions disk_scan_mixed_edges);
      ("disk-stress", suite disk_solutions disk_stress);
      ( "disk-baselines",
        [ Alcotest.test_case "fcfs baseline completes" `Quick
            disk_fcfs_baseline_serves_all;
          Alcotest.test_case "scan beats fcfs travel" `Quick
            test_scan_beats_fcfs_travel;
          Alcotest.test_case "fcfs baseline fails scan" `Quick
            disk_fcfs_fails_scan ] );
      ("alarm-exact", suite alarm_solutions alarm_exact);
      ("alarm-ties", suite alarm_solutions alarm_same_deadlines);
      ("alarm-zero", suite alarm_solutions alarm_zero);
      ( "alarm-controls",
        [ Alcotest.test_case "wake-all fails exact" `Quick
            alarm_wake_all_fails ] ) ]
