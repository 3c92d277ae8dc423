(* Readers-writers: exclusion stress + driven policy scenarios for every
   mechanism/policy pair, including the deterministic reproduction of the
   paper's footnote-3 anomaly in the Figure 1 path solution (E1). *)
open Sync_problems

let check_result name = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* mechanism/variant, module, whether the policy scenarios should PASS
   (Fig1 is faithful to the paper and therefore must FAIL them). *)
let solutions : (string * (module Rw_intf.S) * bool) list =
  [ (* Courtois problem 1 batch-joins readers but lets a FIFO semaphore
       hand a writer-release to an earlier-queued second writer, so it
       fails Bloom's strict reading of readers-priority. *)
    ("sem/readers-prio-courtois", (module Rw_sem.Readers_prio), false);
    ("sem/readers-prio-baton", (module Rw_sem.Readers_prio_baton), true);
    ("sem/writers-prio", (module Rw_sem.Writers_prio), true);
    ("sem/fcfs", (module Rw_sem.Fcfs), true);
    ("mon/readers-prio", (module Rw_mon.Readers_prio), true);
    ("mon/readers-prio-mesa", (module Rw_mon.Readers_prio_mesa), true);
    ("mon/writers-prio", (module Rw_mon.Writers_prio), true);
    ("mon/fcfs", (module Rw_mon.Fcfs), true);
    ("ser/readers-prio", (module Rw_ser.Readers_prio), true);
    ("ser/writers-prio", (module Rw_ser.Writers_prio), true);
    ("ser/fcfs", (module Rw_ser.Fcfs), true);
    ("path/fig1", (module Rw_path.Fig1), false);
    ("path/fig2", (module Rw_path.Fig2), true);
    ("path/plain", (module Rw_path.Plain), true);
    ("csp/readers-prio", (module Rw_csp.Readers_prio), true);
    ("csp/fcfs", (module Rw_csp.Fcfs), true);
    ("ccr/readers-prio", (module Rw_ccr.Readers_prio), true);
    ("ccr/writers-prio", (module Rw_ccr.Writers_prio), true);
    ("ccr/fcfs", (module Rw_ccr.Fcfs), true) ]

let exclusion_tests =
  List.map
    (fun (name, m, _) ->
      Alcotest.test_case name `Quick (fun () ->
          check_result name (Rw_harness.verify_exclusion m)))
    solutions

let heavier_exclusion_tests =
  List.map
    (fun (name, m, _) ->
      Alcotest.test_case name `Quick (fun () ->
          check_result name
            (Rw_harness.verify_exclusion ~readers:6 ~writers:3 ~reads_each:25
               ~writes_each:8 m)))
    solutions

let policy_tests =
  List.map
    (fun (name, m, should_pass) ->
      Alcotest.test_case name `Quick (fun () ->
          match (Rw_harness.verify_policy m, should_pass) with
          | Ok (), true -> ()
          | Error msg, true -> Alcotest.failf "%s: %s" name msg
          | Error _, false -> () (* the documented Figure 1 anomaly *)
          | Ok (), false ->
            Alcotest.failf
              "%s: expected the footnote-3 anomaly but the scenario passed"
              name))
    solutions

(* The anomaly itself, stated positively: in Figure 1 the second writer
   overtakes the waiting reader (paper footnote 3). *)
let test_fig1_footnote3 () =
  match Rw_harness.scenario_writer_handoff (module Rw_path.Fig1) with
  | Rw_harness.Writer_first -> ()
  | Rw_harness.Reader_first ->
    Alcotest.fail "Figure 1 behaved as correct readers-priority?!"

(* And the contrast: the monitor and serializer readers-priority solutions
   hand the resource to the reader in the identical situation. *)
let test_correct_solutions_contrast () =
  List.iter
    (fun (name, m) ->
      match Rw_harness.scenario_writer_handoff m with
      | Rw_harness.Reader_first -> ()
      | Rw_harness.Writer_first ->
        Alcotest.failf "%s: writer overtook the waiting reader" name)
    [ ("mon", (module Rw_mon.Readers_prio : Rw_intf.S));
      ("ser", (module Rw_ser.Readers_prio));
      ("sem-baton", (module Rw_sem.Readers_prio_baton));
      ("csp", (module Rw_csp.Readers_prio)) ]

(* E16: the paper notes readers-priority "allows writers to starve"; the
   FCFS and writers-priority policies must not. Every readers-priority
   solution starves the writer through the reader relay, Courtois
   problem 1 and Figure 1 included: their anomaly is the writer-to-writer
   handoff, not reader admission. *)
let starvation_cases =
  [ ("mon/readers-prio", (module Rw_mon.Readers_prio : Rw_intf.S), true);
    ("mon/writers-prio", (module Rw_mon.Writers_prio), false);
    ("mon/fcfs", (module Rw_mon.Fcfs), false);
    ("ser/readers-prio", (module Rw_ser.Readers_prio), true);
    ("ser/fcfs", (module Rw_ser.Fcfs), false);
    ("ccr/readers-prio", (module Rw_ccr.Readers_prio), true);
    ("ccr/fcfs", (module Rw_ccr.Fcfs), false);
    ("sem/readers-prio-courtois", (module Rw_sem.Readers_prio), true);
    ("sem/readers-prio-baton", (module Rw_sem.Readers_prio_baton), true);
    ("sem/writers-prio", (module Rw_sem.Writers_prio), false);
    ("path/fig1", (module Rw_path.Fig1), true);
    ("path/fig2", (module Rw_path.Fig2), false);
    ("csp/readers-prio", (module Rw_csp.Readers_prio), true);
    ("csp/fcfs", (module Rw_csp.Fcfs), false) ]

let starvation_tests =
  List.map
    (fun (name, m, expect_starved) ->
      Alcotest.test_case name `Quick (fun () ->
          let starved = Rw_harness.scenario_writer_starvation m in
          Alcotest.(check bool)
            (name ^ ": writer starved")
            expect_starved starved))
    starvation_cases

let overlap_tests =
  List.map
    (fun (name, m, _) ->
      Alcotest.test_case name `Quick (fun () ->
          check_result name (Rw_harness.scenario_reader_overlap m)))
    solutions

let () =
  Alcotest.run "problems-rw"
    [ ("exclusion", exclusion_tests);
      ("reader-overlap", overlap_tests);
      ("exclusion-heavy", heavier_exclusion_tests);
      ("policy-scenarios", policy_tests);
      ("starvation", starvation_tests);
      ( "footnote-3",
        [ Alcotest.test_case "fig1 anomaly reproduced" `Quick
            test_fig1_footnote3;
          Alcotest.test_case "correct solutions contrast" `Quick
            test_correct_solutions_contrast ] ) ]
