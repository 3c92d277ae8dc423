(* The deterministic scheduler (E18): real mechanism implementations
   under controlled interleavings. Covers the runtime itself
   (determinism, quiescence, deadlock and step-limit reporting), the
   exploration strategies (seeded random, PCT, bounded DFS), record /
   replay / shrink, and the headline reproduction: the footnote-3
   Figure 1 anomaly found and replayed from a printed seed on the real
   path-expression engine. *)

open Sync_platform
open Sync_detsched

let check_result name = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg

let sched_str v = Detsched.Schedule.to_string v.Detsched.outcome.schedule

let scen name =
  match Scenarios.find name with
  | Some e -> e.Scenarios.scen
  | None -> Alcotest.failf "scenario %s missing from the catalog" name

(* ------------------------------------------------------------------ *)
(* Runtime basics                                                      *)

(* With choose = first candidate, execution order is a pure function of
   the program: same journal every run. *)
let test_runtime_deterministic () =
  let exec () =
    let log = ref [] in
    let note x = log := x :: !log in
    ignore
      (Detrt.run ~choose:(fun _ -> 0) (fun () ->
           let m = Mutex.create () in
           let ps =
             List.init 3 (fun i ->
                 Process.spawn (fun () ->
                     Mutex.lock m;
                     note (Printf.sprintf "t%d" i);
                     Mutex.unlock m))
           in
           note "spawned";
           List.iter Process.join ps));
    List.rev !log
  in
  let a = exec () and b = exec () in
  Alcotest.(check (list string)) "identical journals" a b

let test_quiescence_orders_arrivals () =
  let log = ref [] in
  ignore
    (Detrt.run ~choose:(fun _ -> 0) (fun () ->
         let ps =
           List.init 3 (fun i ->
               let p = Process.spawn (fun () -> log := i :: !log) in
               Detrt.await_quiescence ();
               p)
         in
         List.iter Process.join ps));
  Alcotest.(check (list int)) "arrival order" [ 0; 1; 2 ] (List.rev !log)

let test_deadlock_reported () =
  let e = scen "deadlock-abba" in
  (* Steer both tasks to their first lock before either takes its
     second: DFS below proves such schedules exist; here seed search
     finds one quickly. *)
  let r = Detsched.sample ~runs:50 e in
  match r.Detsched.failure with
  | Some (_, v) ->
    let msg = Detsched.verdict_message v in
    if not (Astring.String.is_infix ~affix:"Deadlock" msg) then
      Alcotest.failf "expected a deadlock report, got: %s" msg
  | None -> Alcotest.fail "no deadlocking schedule found in 50 seeds"

let test_step_limit () =
  let sc =
    Detsched.scenario ~name:"spin" ~descr:"never terminates" (fun () ->
        { Detsched.body =
            (fun () ->
              let p =
                Process.spawn (fun () ->
                    while true do
                      Detrt.yield ()
                    done)
              in
              Process.join p);
          check = (fun () -> Ok ()) })
  in
  let v = Detsched.run ~max_steps:500 ~pick:(Detsched.random_pick ~seed:0) sc in
  match v.Detsched.verdict with
  | Ok () -> Alcotest.fail "runaway scenario passed"
  | Error msg ->
    if not (Astring.String.is_infix ~affix:"Step_limit" msg) then
      Alcotest.failf "expected Step_limit, got: %s" msg

let test_schedule_roundtrip () =
  let open Detsched.Schedule in
  let s =
    [| { alts = 3; chosen = 1 }; { alts = 2; chosen = 0 };
       { alts = 5; chosen = 4 } |]
  in
  Alcotest.(check string) "roundtrip" (to_string s)
    (to_string (of_string (to_string s)));
  Alcotest.(check string) "empty" "-" (to_string (of_string "-"))

(* ------------------------------------------------------------------ *)
(* The catalog under seeded random exploration: every run of every
   scenario must be reproducible from its seed, and the verdicts must
   match the catalog's expectations ([Fail] = reproduced anomaly). *)

let catalog_case (e : Scenarios.entry) () =
  let name = e.Scenarios.scen.Detsched.name in
  List.iter
    (fun seed ->
      let v1 = Detsched.run_random ~seed e.Scenarios.scen in
      let v2 = Detsched.run_random ~seed e.Scenarios.scen in
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: schedule reproducible" name seed)
        (sched_str v1) (sched_str v2);
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: verdict reproducible" name seed)
        (Detsched.verdict_message v1)
        (Detsched.verdict_message v2);
      match e.Scenarios.expect with
      | Scenarios.Pass ->
        check_result (Printf.sprintf "%s seed %d" name seed)
          v1.Detsched.verdict
      | Scenarios.Fail -> ())
    [ 1; 2; 3 ];
  (* [Fail] means exploration is supposed to find failing schedules —
     not that any particular seed fails. *)
  match e.Scenarios.expect with
  | Scenarios.Pass -> ()
  | Scenarios.Fail -> (
    match (Detsched.sample ~runs:50 e.Scenarios.scen).Detsched.failure with
    | Some _ -> ()
    | None ->
      Alcotest.failf "%s: no failing schedule among 50 random seeds" name)

(* ------------------------------------------------------------------ *)
(* Footnote 3: Figure 1 on the real path-expression engine admits the
   second writer ahead of the queued reader, violating the
   readers-priority policy it claims. The failing schedule prints with
   its seed and must replay byte-for-byte. *)

let test_fig1_anomaly_reproduced_and_replayed () =
  let sc = scen "rw-fig1" in
  let seed = 11 in
  let v = Detsched.run_random ~seed sc in
  (match v.Detsched.verdict with
  | Ok () -> Alcotest.fail "Figure 1 writer-handoff unexpectedly passed"
  | Error msg ->
    if not (Astring.String.is_infix ~affix:"writer-first" msg) then
      Alcotest.failf "expected the W2-overtakes-R anomaly, got: %s" msg;
    Printf.printf
      "\n  footnote-3 anomaly (rw-fig1): seed %d\n  verdict: %s\n  \
       schedule: %s\n  replay: Detsched.run_random ~seed:%d, or replay the \
       schedule string\n"
      seed msg (sched_str v) seed);
  (* Second run from the same printed seed: identical schedule, identical
     verdict. *)
  let v' = Detsched.run_random ~seed sc in
  Alcotest.(check string) "same schedule from printed seed" (sched_str v)
    (sched_str v');
  Alcotest.(check string) "same verdict from printed seed"
    (Detsched.verdict_message v)
    (Detsched.verdict_message v');
  (* And byte-for-byte replay from the recorded schedule itself. *)
  let r = Detsched.replay sc v.Detsched.outcome.schedule in
  Alcotest.(check string) "replayed schedule identical" (sched_str v)
    (sched_str r);
  Alcotest.(check string) "replayed verdict identical"
    (Detsched.verdict_message v)
    (Detsched.verdict_message r)

(* The same staging on correct engines: Figure 2 (writers-priority, as
   documented), monitor and serializer readers-priority all satisfy
   their declared policy on every sampled schedule. *)
let test_correct_policies_hold () =
  List.iter
    (fun name ->
      let r = Detsched.sample ~runs:25 (scen name) in
      match r.Detsched.failure with
      | None -> ()
      | Some (seed, v) ->
        Alcotest.failf "%s failed at seed %d: %s" name seed
          (Detsched.verdict_message v))
    [ "rw-fig2"; "rw-mon"; "rw-ser" ]

(* ------------------------------------------------------------------ *)
(* PCT fuzzing finds the Figure 1 anomaly too, and leaves the correct
   engines alone. *)

let test_pct_strategy () =
  let v = Detsched.run_pct ~seed:7 (scen "rw-fig1") in
  if Detsched.verdict_ok v then
    Alcotest.fail "PCT run of rw-fig1 unexpectedly passed";
  let r = Detsched.sample ~runs:10 ~strategy:`Pct (scen "rw-mon") in
  match r.Detsched.failure with
  | None -> ()
  | Some (seed, v) ->
    Alcotest.failf "rw-mon failed under PCT seed %d: %s" seed
      (Detsched.verdict_message v)

(* ------------------------------------------------------------------ *)
(* Bounded DFS                                                          *)

(* The deadlock demo is small enough to enumerate completely: the tree
   must contain both deadlocking and clean schedules. *)
let test_dfs_deadlock_complete () =
  let r = Detsched.explore_dfs ~max_schedules:100_000 (scen "deadlock-abba") in
  if not r.Detsched.complete then
    Alcotest.failf "expected complete enumeration, stopped at %d schedules"
      r.Detsched.explored;
  if r.Detsched.failures = [] then
    Alcotest.fail "DFS did not find the deadlock";
  if List.length r.Detsched.failures >= r.Detsched.explored then
    Alcotest.fail "DFS found no deadlock-free schedule";
  List.iter
    (fun (_, msg) ->
      if not (Astring.String.is_infix ~affix:"Deadlock" msg) then
        Alcotest.failf "non-deadlock failure in the lock demo: %s" msg)
    r.Detsched.failures

(* A capped DFS over the bounded buffer: no explored schedule may break
   conservation or per-producer FIFO. *)
let test_dfs_bb_no_failures () =
  let r =
    Detsched.explore_dfs ~max_schedules:150 ~max_failures:1 (scen "bb-sem")
  in
  (match r.Detsched.failures with
  | [] -> ()
  | (s, msg) :: _ ->
    Alcotest.failf "bb-sem failed on schedule %s: %s"
      (Detsched.Schedule.to_string s) msg);
  if r.Detsched.explored = 0 then Alcotest.fail "DFS explored nothing"

(* Every branch of the fig1 handoff tree fails: the anomaly is a policy
   property of the engine, not of one lucky interleaving. *)
let test_dfs_fig1_all_fail () =
  let r =
    Detsched.explore_dfs ~max_schedules:80 ~max_failures:80 (scen "rw-fig1")
  in
  Alcotest.(check int)
    "every explored schedule fails" r.Detsched.explored
    (List.length r.Detsched.failures)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                            *)

let test_shrink_fig1 () =
  let sc = scen "rw-fig1" in
  let v = Detsched.run_random ~seed:11 sc in
  if Detsched.verdict_ok v then Alcotest.fail "seed 11 should fail";
  let orig = v.Detsched.outcome.schedule in
  let s = Detsched.shrink sc orig in
  (* Replaying with default choices can take a longer path, so the raw
     decision count is not monotone — the number of non-default choices
     (what a human reads) is. *)
  let nonzero sched =
    Array.fold_left
      (fun n c -> if c <> 0 then n + 1 else n)
      0
      (Detsched.Schedule.choices sched)
  in
  if nonzero s.Detsched.shrunk > nonzero orig then
    Alcotest.failf "shrink grew the schedule: %d -> %d non-default decisions"
      (nonzero orig)
      (nonzero s.Detsched.shrunk);
  (* The shrunk schedule still fails on strict replay. *)
  let r = Detsched.replay sc s.Detsched.shrunk in
  if Detsched.verdict_ok r then
    Alcotest.fail "shrunk schedule no longer fails";
  Printf.printf "\n  shrink: %d -> %d non-default decisions (%d replays)\n"
    (nonzero orig)
    (nonzero s.Detsched.shrunk)
    s.Detsched.attempts

(* ------------------------------------------------------------------ *)
(* FCFS under both signalling disciplines, deterministically: the Hoare
   monitor's condition queue and the Mesa ticket loop must both drain
   the contenders in exact arrival order on every sampled schedule. *)

let fcfs_det_case name () =
  let r = Detsched.sample ~runs:25 (scen name) in
  match r.Detsched.failure with
  | None -> ()
  | Some (seed, v) ->
    Alcotest.failf "%s failed at seed %d: %s" name seed
      (Detsched.verdict_message v)

(* The Mesa ticket monitor must also hold up under real preemptive
   threads (the classic harness with settle delays). *)
let test_fcfs_mesa_threaded () =
  check_result "fcfs-mon-mesa (threads)"
    (Sync_problems.Fcfs_harness.verify (module Sync_problems.Fcfs_mon.Mesa))

let () =
  let catalog =
    List.map
      (fun (e : Scenarios.entry) ->
        Alcotest.test_case e.Scenarios.scen.Detsched.name `Quick
          (catalog_case e))
      Scenarios.all
  in
  Alcotest.run "detsched"
    [ ( "runtime",
        [ Alcotest.test_case "journals deterministic" `Quick
            test_runtime_deterministic;
          Alcotest.test_case "quiescence orders arrivals" `Quick
            test_quiescence_orders_arrivals;
          Alcotest.test_case "deadlock reported" `Quick test_deadlock_reported;
          Alcotest.test_case "step limit reported" `Quick test_step_limit;
          Alcotest.test_case "schedule string roundtrip" `Quick
            test_schedule_roundtrip ] );
      ("catalog-random", catalog);
      ( "footnote-3",
        [ Alcotest.test_case "fig1 anomaly reproduced + replayed" `Quick
            test_fig1_anomaly_reproduced_and_replayed;
          Alcotest.test_case "correct policies hold" `Quick
            test_correct_policies_hold;
          Alcotest.test_case "pct finds it too" `Quick test_pct_strategy ] );
      ( "dfs",
        [ Alcotest.test_case "deadlock tree enumerated" `Quick
            test_dfs_deadlock_complete;
          Alcotest.test_case "bounded buffer clean" `Quick
            test_dfs_bb_no_failures;
          Alcotest.test_case "fig1 fails on every branch" `Quick
            test_dfs_fig1_all_fail ] );
      ("shrink", [ Alcotest.test_case "fig1 shrinks" `Quick test_shrink_fig1 ]);
      ( "fcfs-disciplines",
        [ Alcotest.test_case "hoare (det)" `Quick
            (fcfs_det_case "fcfs-mon-hoare");
          Alcotest.test_case "mesa (det)" `Quick (fcfs_det_case "fcfs-mon-mesa");
          Alcotest.test_case "semaphore (det)" `Quick
            (fcfs_det_case "fcfs-sem");
          Alcotest.test_case "mesa (threads)" `Quick test_fcfs_mesa_threaded ]
      ) ]
