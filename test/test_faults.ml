(* Fault-injection regression tests (E19, tier 1 in the small): an
   abort-matrix smoke over the bounded buffer, the readers-priority
   monitor's reader cascade under aborts, a seeded failing schedule
   reproduced and replayed byte-for-byte, and the deterministic
   runtime's deadlock report naming the AB/BA cycle. The full matrix
   runs as [bloom_eval axis robustness]. *)

open Sync_platform
module D = Sync_detsched.Detsched

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

let has ~affix s = Astring.String.is_infix ~affix s

(* ------------------------------------------------------------------ *)
(* Abort-matrix smoke                                                 *)

let smoke_plan () =
  Fault.plan
    [ ("bb.put.body", Fault.Nth 2); ("bb.get.body", Fault.Every 7);
      ("waitq.pre-wait", Fault.Every 5); ("semaphore.pre-wait", Fault.Every 5)
    ]

let bb_smoke : (string * (module Sync_problems.Bb_intf.S)) list =
  [ ("semaphore", (module Sync_problems.Bb_sem));
    ("monitor", (module Sync_problems.Bb_mon)) ]

let test_abort_smoke () =
  List.iter
    (fun (name, (module B : Sync_problems.Bb_intf.S)) ->
      let r =
        Fault.with_plan (smoke_plan ()) (fun () ->
            Sync_problems.Bb_harness.run_abort
              (module B)
              ~capacity:3 ~producers:2 ~consumers:2 ~items_per_producer:10 ())
      in
      match Sync_problems.Bb_harness.check_abort ~producers:2 r with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s did not recover: %s" name m)
    bb_smoke

(* ------------------------------------------------------------------ *)
(* Seeded failing schedule: reproduce, then replay byte-for-byte       *)

(* Readers-priority monitor under aborts at every fourth pre-wait: a
   reader that has raised [readers] then cascade-signals the next one,
   and that signal's urgent wait is a pre-wait site. An abort there used
   to leave the count raised, and the writers parked forever. *)
let rw_mon_aborts =
  D.scenario ~name:"rw-mon-aborts" ~descr:"readers-priority monitor, 3r/2w"
    (fun () ->
      let report = ref None in
      let plan = Fault.plan [ ("waitq.pre-wait", Fault.Every 4) ] in
      { D.body =
          (fun () ->
            report :=
              Some
                (Fault.with_plan plan (fun () ->
                     Sync_problems.Rw_harness.run_abort
                       (module Sync_problems.Rw_mon.Readers_prio)
                       ~backend:`Det ~readers:3 ~writers:2 ~reads_each:2
                       ~writes_each:2 ())));
        check =
          (fun () ->
            match !report with
            | None -> Error "scenario body did not run"
            | Some r -> Sync_problems.Rw_harness.check_abort r) })

let test_rw_mon_cascade () =
  match (D.sample ~runs:100 rw_mon_aborts).D.failure with
  | None -> ()
  | Some (seed, v) ->
    Alcotest.failf "seed %d: %s" seed (D.verdict_message v)

(* The staged FCFS round on CSP with every fourth blocking entry aborted.
   A fault that fired inside the teardown's [stop] used to strand the CSP
   server, and the run deadlocked on some seeds; teardown is masked. *)
let fcfs_csp_aborts =
  D.scenario ~name:"fcfs-csp-aborts" ~descr:"CSP fcfs, 5 users, prewait-every4"
    (fun () ->
      let report = ref None in
      let plan =
        Fault.plan
          (List.map
             (fun site -> (site, Fault.Every 4))
             [ "waitq.pre-wait"; "semaphore.pre-wait"; "serializer.pre-wait";
               "ccr.pre-wait"; "csp.pre-wait" ])
      in
      { D.body =
          (fun () ->
            report :=
              Some
                (Fault.with_plan plan (fun () ->
                     Sync_problems.Fcfs_harness.run_abort
                       (module Sync_problems.Fcfs_csp) ~users:5 ())));
        check =
          (fun () ->
            match !report with
            | None -> Error "scenario body did not run"
            | Some r -> Sync_problems.Fcfs_harness.check_abort r) })

let test_fcfs_csp_teardown () =
  for seed = 0 to 19 do
    let v = D.run_random ~seed fcfs_csp_aborts in
    if not (D.verdict_ok v) then
      Alcotest.failf "seed %d: %s" seed (D.verdict_message v)
  done

(* A deliberately non-compensating holder: the injected abort lands
   between P and V and the token is never returned, so the second worker
   blocks forever and the runtime reports a deadlock. This is the
   counterexample the compensating mechanisms are tested against. *)
let lost_token =
  D.scenario ~name:"lost-token"
    ~descr:"abort between P and V with no compensation loses the token"
    (fun () ->
      let plan = Fault.plan [ ("toy.hold.body", Fault.Nth 1) ] in
      { D.body =
          (fun () ->
            Fault.with_plan plan (fun () ->
                let sem = Semaphore.Counting.create 1 in
                let worker i =
                  Process.spawn ~name:(Printf.sprintf "worker-%d" i)
                    (fun () ->
                      Semaphore.Counting.p sem;
                      match Fault.site "toy.hold.body" with
                      | () -> Semaphore.Counting.v sem
                      | exception Fault.Injected _ -> ())
                in
                List.iter Process.join [ worker 0; worker 1 ]));
        check = (fun () -> Ok ()) })

let test_seeded_failure_replays () =
  let v = D.run_random ~max_steps:10_000 ~seed:11 lost_token in
  check_bool "seeded run fails" false (D.verdict_ok v);
  let msg = D.verdict_message v in
  check_bool "reports a deadlock" true
    (has ~affix:"eadlock" msg);
  let sched = v.D.outcome.D.schedule in
  let v2 = D.replay ~max_steps:10_000 lost_token sched in
  check_bool "replay fails too" false (D.verdict_ok v2);
  check_string "same failure message" msg (D.verdict_message v2);
  check_string "same schedule"
    (D.Schedule.to_string sched)
    (D.Schedule.to_string v2.D.outcome.D.schedule)

(* ------------------------------------------------------------------ *)
(* Every AB/BA deadlock names its circular wait                        *)

let test_report_names_abba () =
  let scen =
    match Sync_detsched.Scenarios.find "deadlock-abba" with
    | Some e -> e.Sync_detsched.Scenarios.scen
    | None -> Alcotest.fail "deadlock-abba scenario missing"
  in
  let r = D.explore_dfs ~max_steps:5_000 ~max_schedules:400 scen in
  let deadlocking =
    List.filter (fun (_, m) -> has ~affix:"eadlock" m) r.D.failures
  in
  check_bool "DFS finds deadlocking schedules" true (deadlocking <> []);
  let cycle msg =
    match Astring.String.cut ~sep:"wait-for cycle:" msg with
    | Some (_, c) -> c
    | None -> Alcotest.failf "no cycle in the report: %s" msg
  in
  let cycles = List.map (fun (_, m) -> cycle m) deadlocking in
  match List.sort_uniq compare cycles with
  | [ c ] ->
    check_bool "cycle names locker-ab" true (has ~affix:"locker-ab" c);
    check_bool "cycle names locker-ba" true (has ~affix:"locker-ba" c);
    (* A replay of a deadlocking schedule reports the same text. *)
    let sched, msg = List.hd deadlocking in
    check_string "replay names the same cycle" msg
      (D.verdict_message (D.replay ~max_steps:5_000 scen sched))
  | cs ->
    Alcotest.failf "%d distinct cycle texts: %s" (List.length cs)
      (String.concat " | " cs)

let () =
  Alcotest.run "faults"
    [ ( "abort-matrix",
        [ Alcotest.test_case "bounded-buffer smoke" `Quick test_abort_smoke;
          Alcotest.test_case "rw monitor reader cascade" `Quick
            test_rw_mon_cascade;
          Alcotest.test_case "fcfs csp teardown" `Quick
            test_fcfs_csp_teardown ] );
      ( "replay",
        [ Alcotest.test_case "seeded failure replays byte-for-byte" `Quick
            test_seeded_failure_replays ] );
      ( "cycle-report",
        [ Alcotest.test_case "names the AB/BA cycle" `Quick
            test_report_names_abba ] ) ]
