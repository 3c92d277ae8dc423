(* Explorer facts on the real primitives, each decided by complete DPOR:
   a strong semaphore keeps three contenders exclusive on every class of
   schedules and drains them in arrival order (the fcfs-sem-3u
   certification); the AB/BA lock demo deadlocks on some classes and
   completes on others; a violated check is reported once per failing
   run. Then footnote 3 as a staged proof: on the writer-handoff staging
   of Figure 1, every class serves the second writer first. *)

open Sync_platform
module D = Sync_detsched.Detsched
module Scenarios = Sync_detsched.Scenarios

let scen name =
  match Scenarios.find name with
  | Some e -> e.Scenarios.scen
  | None -> Alcotest.failf "scenario %s not in catalog" name

let distinct_messages failures =
  List.sort_uniq compare (List.map snd failures)

let check_counts name (r : D.dpor_report) counts =
  Alcotest.(check (triple int int int))
    (name ^ ": explored, races, redundant")
    counts
    (r.explored, r.races, r.redundant)

let check_all_match ~affix (r : D.dpor_report) =
  List.iter
    (fun (_, m) ->
      if not (Astring.String.is_infix ~affix m) then
        Alcotest.failf "unexpected failure mode: %s" m)
    r.failures

(* Three P/V sections on one strong semaphore; each checks on entry that
   nobody else is inside, and yields while inside so a broken semaphore
   has a schedule that shows it. *)
let test_sem_exclusion () =
  let sc =
    D.scenario ~name:"sem-excl-3t"
      ~descr:"three P/V sections on one strong semaphore"
      (fun () ->
        let s = Semaphore.Counting.create ~fairness:`Strong 1 in
        let in_cs = ref 0 in
        let breach = ref false in
        let task () =
          Semaphore.Counting.p s;
          if !in_cs > 0 then breach := true;
          incr in_cs;
          Detrt.yield ();
          decr in_cs;
          Semaphore.Counting.v s
        in
        { D.body =
            (fun () ->
              let ts = List.init 3 (fun _ -> Detrt.spawn task) in
              List.iter Detrt.join ts);
          check =
            (fun () ->
              if !breach then Error "two processes in the section" else Ok ())
        })
  in
  let r = D.explore_dpor ~max_schedules:50_000 sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  Alcotest.(check bool) "explored something" true (r.explored > 10);
  Alcotest.(check (list string)) "exclusion holds on every schedule" []
    (distinct_messages r.failures)

let test_sem_fifo () =
  let r = D.explore_dpor ~max_schedules:100_000 (scen "fcfs-sem-3u") in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  check_counts "fcfs-sem-3u" r (34560, 74521, 0);
  Alcotest.(check (list string)) "FIFO drain on every schedule" []
    (distinct_messages r.failures)

let test_abba_deadlock_found () =
  let r = D.explore_dpor ~max_failures:1_000 (scen "deadlock-abba") in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  Alcotest.(check bool) "deadlock found" true (r.failures <> []);
  Alcotest.(check bool) "some schedules complete" true (r.failed < r.explored);
  check_all_match ~affix:"Deadlock" r

let test_violation_reported () =
  let sc =
    D.scenario ~name:"bump" ~descr:"the main task sets x to 1" (fun () ->
        let x = ref 0 in
        { D.body = (fun () -> x := 1);
          check = (fun () -> if !x = 1 then Error "x hit 1" else Ok ()) })
  in
  let r = D.explore_dpor sc in
  Alcotest.(check int) "one run" 1 r.explored;
  Alcotest.(check int) "one violation" 1 (List.length r.failures);
  Alcotest.(check int) "counted once" 1 r.failed

let test_fig1_unavoidable () =
  let r =
    D.explore_dpor ~max_schedules:50_000 ~max_failures:100 (scen "rw-fig1")
  in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  check_counts "rw-fig1" r (42240, 92484, 0);
  Alcotest.(check int) "every class fails" r.explored r.failed;
  check_all_match ~affix:"expected reader-first, got writer-first" r

let () =
  Alcotest.run "explorer"
    [ ( "explorer",
        [ Alcotest.test_case "semaphore exclusion, all interleavings" `Quick
            test_sem_exclusion;
          Alcotest.test_case "semaphore FIFO, all interleavings" `Quick
            test_sem_fifo;
          Alcotest.test_case "classic AB/BA deadlock found" `Quick
            test_abba_deadlock_found;
          Alcotest.test_case "invariant violations reported" `Quick
            test_violation_reported ] );
      ( "staged-proofs",
        [ Alcotest.test_case "fig1 anomaly unavoidable" `Quick
            test_fig1_unavoidable ] ) ]
