(* E26: differential testing of the DPOR explorer against exhaustive DFS.
   On every scenario small enough for a complete naive DFS, DPOR must
   report the identical set of distinct failure messages with
   [complete = true] while exploring strictly fewer schedules — that
   cross-check is the soundness argument for trusting DPOR at the depths
   DFS cannot finish, which the completeness tests below then exercise on
   the footnote-3 anomaly and the E19 cancellation storm, and the E17
   tests on the paper's staged verdicts. *)

open Sync_platform
module D = Sync_detsched.Detsched
module Scenarios = Sync_detsched.Scenarios

let entry name =
  match Scenarios.find name with
  | Some e -> e
  | None -> Alcotest.failf "scenario %s not in catalog" name

let scen name = (entry name).Scenarios.scen

let distinct_messages failures =
  List.sort_uniq compare (List.map snd failures)

(* Exact DPOR counts for the scenarios the dpor-certify benchmark
   explores: classes explored, backtrack points planted by races, and
   sleep-redundant runs. They pin the analysis itself, so a change that
   makes it cheaper must leave all three where they are. *)
let check_counts name (r : D.dpor_report) counts =
  Alcotest.(check (triple int int int))
    (name ^ ": explored, races, redundant")
    counts
    (r.explored, r.races, r.redundant)

(* ------------------------------------------------------------------ *)
(* Small mutex/counter programs over raw [Detrt] tasks: the lost-update
   pattern (read under the lock, yield, write under the lock) fails with
   a final count that depends on the interleaving, so programs have
   several distinct failure messages — a strong set-equality oracle. *)

type op =
  | Balanced of int (* one locked increment of counter [m] *)
  | Two_phase of int (* racy two-phase increment: the classic lost update *)

type prog = { n_mutexes : int; tasks : op list list }

let exec_op mutexes counters = function
  | Balanced m ->
    Mutex.lock mutexes.(m);
    counters.(m) <- counters.(m) + 1;
    Mutex.unlock mutexes.(m)
  | Two_phase m ->
    Mutex.lock mutexes.(m);
    let v = counters.(m) in
    Mutex.unlock mutexes.(m);
    Detrt.yield ();
    Mutex.lock mutexes.(m);
    counters.(m) <- v + 1;
    Mutex.unlock mutexes.(m)

let op_to_string = function
  | Balanced m -> Printf.sprintf "B%d" m
  | Two_phase m -> Printf.sprintf "T%d" m

let prog_to_string p =
  Printf.sprintf "{m=%d; %s}" p.n_mutexes
    (String.concat " | "
       (List.map
          (fun ops -> String.concat "," (List.map op_to_string ops))
          p.tasks))

let prog_scenario p =
  D.scenario ~name:"prog" ~descr:(prog_to_string p)
    (fun () ->
      let mutexes = Array.init p.n_mutexes (fun _ -> Mutex.create ()) in
      let counters = Array.make p.n_mutexes 0 in
      { D.body =
          (fun () ->
            let ts =
              List.mapi
                (fun i ops ->
                  Detrt.spawn
                    ~name:(Printf.sprintf "w%d" i)
                    (fun () -> List.iter (exec_op mutexes counters) ops))
                p.tasks
            in
            List.iter Detrt.join ts);
        check =
          (fun () ->
            let want = Array.make p.n_mutexes 0 in
            List.iter
              (List.iter (function
                | Balanced m | Two_phase m -> want.(m) <- want.(m) + 1))
              p.tasks;
            let bad = ref None in
            Array.iteri
              (fun i w ->
                if !bad = None && counters.(i) <> w then
                  bad := Some (i, counters.(i), w))
              want;
            match !bad with
            | None -> Ok ()
            | Some (i, got, w) ->
              Error (Printf.sprintf "counter %d: got %d, want %d" i got w)) })

(* ------------------------------------------------------------------ *)
(* The differential harness itself. [max_failures] is far above any
   suite scenario's failure count, and the harness asserts the cap was
   not hit: a truncated failure list would make set-equality vacuous. *)

let differential ?(max_schedules = 400_000) sc () =
  let max_failures = 200_000 in
  let dfs = D.explore_dfs ~max_schedules ~max_failures sc in
  Alcotest.(check bool)
    (sc.D.name ^ ": DFS completes within the differential budget")
    true dfs.complete;
  Alcotest.(check bool)
    (sc.D.name ^ ": DFS failure list not truncated")
    true
    (List.length dfs.failures < max_failures);
  let dpor = D.explore_dpor ~max_schedules ~max_failures sc in
  Alcotest.(check bool) (sc.D.name ^ ": DPOR complete") true dpor.complete;
  Alcotest.(check (list string))
    (sc.D.name ^ ": identical distinct failure messages")
    (distinct_messages dfs.failures)
    (distinct_messages dpor.failures);
  Alcotest.(check bool)
    (Printf.sprintf "%s: DPOR explored strictly fewer (%d < %d)" sc.D.name
       dpor.explored dfs.explored)
    true
    (dpor.explored < dfs.explored)

let differential_progs =
  [ (* one racy pair: one lost-update message *)
    { n_mutexes = 1; tasks = [ [ Two_phase 0 ]; [ Two_phase 0 ] ] };
    (* race against a balanced writer *)
    { n_mutexes = 1; tasks = [ [ Two_phase 0 ]; [ Balanced 0 ] ] };
    (* three increments, two racy: two distinct failure messages *)
    { n_mutexes = 1; tasks = [ [ Two_phase 0; Balanced 0 ]; [ Two_phase 0 ] ] };
    (* fully independent counters: zero failures, maximal commutation *)
    { n_mutexes = 2; tasks = [ [ Two_phase 0 ]; [ Two_phase 1 ] ] } ]

let differential_tests =
  Alcotest.test_case "differential deadlock-abba" `Quick
    (differential (scen "deadlock-abba"))
  (* The E25 broken-lock control is DFS-feasible (~300k schedules), so
     the planted exclusion violation doubles as a differential row:
     both explorers must report the identical violation set. *)
  :: Alcotest.test_case "differential naive-rw-excl" `Quick
       (differential (scen "naive-rw-excl-2t1r"))
  :: List.map
       (fun p ->
         Alcotest.test_case ("differential " ^ prog_to_string p) `Quick
           (differential (prog_scenario p)))
       differential_progs

(* Property form of the same cross-check, over random programs. Shapes
   are kept complete-DFS-feasible by construction (two tasks, one op
   each); the QCheck seed is pinned via [Testutil.qcheck_case]. *)
let qcheck_differential =
  let gen =
    QCheck.Gen.(
      int_range 1 2 >>= fun n_mutexes ->
      let op =
        int_range 0 (n_mutexes - 1) >>= fun m ->
        oneofl [ Balanced m; Two_phase m ]
      in
      op >>= fun o1 ->
      op >>= fun o2 -> return { n_mutexes; tasks = [ [ o1 ]; [ o2 ] ] })
  in
  QCheck.Test.make ~name:"random programs: DPOR == DFS on failure sets"
    ~count:8
    (QCheck.make ~print:prog_to_string gen)
    (fun p ->
      let sc = prog_scenario p in
      let dfs = D.explore_dfs ~max_schedules:200_000 ~max_failures:100_000 sc in
      let dpor =
        D.explore_dpor ~max_schedules:200_000 ~max_failures:100_000 sc
      in
      if not dfs.complete then
        QCheck.Test.fail_reportf "%s: DFS incomplete" (prog_to_string p);
      if not dpor.complete then
        QCheck.Test.fail_reportf "%s: DPOR incomplete" (prog_to_string p);
      if distinct_messages dfs.failures <> distinct_messages dpor.failures then
        QCheck.Test.fail_reportf "%s: failure sets differ\nDFS : %s\nDPOR: %s"
          (prog_to_string p)
          (String.concat " | " (distinct_messages dfs.failures))
          (String.concat " | " (distinct_messages dpor.failures));
      if dpor.explored > dfs.explored then
        QCheck.Test.fail_reportf "%s: DPOR explored more (%d > %d)"
          (prog_to_string p) dpor.explored dfs.explored;
      true)

(* ------------------------------------------------------------------ *)
(* Completeness beyond DFS reach: the win condition. The same engine the
   differential suite just validated proves full coverage on scenarios
   whose schedule trees naive DFS cannot finish within the CI budget. *)

(* Footnote 3 (Figure 1 path expression): DPOR visits every equivalence
   class and finds the writer-first anomaly in every one of them, where
   DFS exhausts the same budget with the tree unfinished. *)
let test_fn3_complete () =
  let sc = scen "rw-fig1" in
  let budget = 50_000 in
  let dfs = D.explore_dfs ~max_schedules:budget sc in
  Alcotest.(check bool) "naive DFS exceeds the budget" false dfs.complete;
  let r = D.explore_dpor ~max_schedules:budget ~max_failures:1_000 sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  check_counts "rw-fig1" r (42240, 92484, 0);
  Alcotest.(check int) "every class fails" r.explored r.failed;
  List.iter
    (fun (_, m) ->
      if not (Astring.String.is_infix ~affix:"writer-first" m) then
        Alcotest.failf "unexpected failure mode: %s" m)
    r.failures

(* E19 cancellation storm: the semaphore rollback machinery verified over
   the complete schedule tree (E19's DFS row stops at 2 000 bounded
   schedules; the full tree is beyond 3M). *)
let test_storm_complete () =
  let sc = scen "storm-bb-sem-1p1c2i" in
  let budget = 8_000 in
  let dfs = D.explore_dfs ~max_schedules:budget sc in
  Alcotest.(check bool) "naive DFS exceeds the budget" false dfs.complete;
  let r = D.explore_dpor ~max_schedules:budget sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  Alcotest.(check (list string)) "every schedule recovers" []
    (distinct_messages r.failures)

(* The bb catalog entry at its smallest shape: full verification. *)
let test_bb_small_complete () =
  let sc = scen "bb-sem-small" in
  let r = D.explore_dpor ~max_schedules:50_000 sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  Alcotest.(check (list string)) "no failures" [] (distinct_messages r.failures)

(* ------------------------------------------------------------------ *)
(* E25 class-restricted locks over deterministic registers: exhaustive
   (DPOR-complete) verification that the bakery and ticket constructions
   preserve mutual exclusion, and that the FCFS ticket semaphore never
   loses a wakeup (which would surface as a deadlock on some schedule).
   The broken test-then-set control above proves the witness machinery
   detects real violations. *)

let test_bakery_complete () =
  let sc = scen "bakery-excl-2t1r" in
  let budget = 50_000 in
  let dfs = D.explore_dfs ~max_schedules:budget sc in
  Alcotest.(check bool) "naive DFS exceeds the budget" false dfs.complete;
  let r = D.explore_dpor ~max_schedules:budget sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  check_counts "bakery-excl-2t1r" r (942, 2032, 0);
  Alcotest.(check (list string)) "exclusion holds on every schedule" []
    (distinct_messages r.failures)

let test_ticket_complete () =
  let sc = scen "ticket-excl-2t2r" in
  let r = D.explore_dpor ~max_schedules:50_000 sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  check_counts "ticket-excl-2t2r" r (5034, 9839, 0);
  Alcotest.(check (list string)) "exclusion holds on every schedule" []
    (distinct_messages r.failures)

let test_ticket_sem_complete () =
  let sc = scen "ticket-sem-handoff-3t" in
  let r = D.explore_dpor ~max_schedules:150_000 sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  check_counts "ticket-sem-handoff-3t" r (82310, 176498, 168);
  Alcotest.(check (list string))
    "no lost wakeup, no exclusion breach, on any schedule" []
    (distinct_messages r.failures)

(* E27 hot-swap retiering: the DPOR-complete certificate that the
   lock / re-check / retry protocol behind [Mutex.swap_to] preserves
   exclusion across a mid-run tier flip — on a tree naive DFS cannot
   finish within the same budget. The control drops the re-check;
   every failure DPOR reports there must be the stale-cell exclusion
   violation the re-check exists to kill. *)
let test_swap_complete () =
  let sc = scen "swap-excl-1t1r1f" in
  let budget = 50_000 in
  let dfs = D.explore_dfs ~max_schedules:budget sc in
  Alcotest.(check bool) "naive DFS exceeds the budget" false dfs.complete;
  let r = D.explore_dpor ~max_schedules:budget sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  check_counts "swap-excl-1t1r1f" r (3445, 6582, 0);
  Alcotest.(check (list string))
    "exclusion holds across the flip on every schedule" []
    (distinct_messages r.failures)

let test_swap_norecheck_found () =
  let sc = scen "swap-excl-norecheck-1t1r1f" in
  let r = D.explore_dpor ~max_schedules:50_000 ~max_failures:1_000 sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  check_counts "swap-excl-norecheck-1t1r1f" r (5383, 8531, 0);
  Alcotest.(check bool) "violations found" true (r.failures <> []);
  List.iter
    (fun (_, m) ->
      if not (Astring.String.is_infix ~affix:"exclusion violation" m) then
        Alcotest.failf "unexpected failure mode: %s" m)
    r.failures

(* The rest of the dpor-certify catalog: the E23 queue locks and the
   E25 broken-lock control, which the tests above do not explore. *)
let test_queue_lock_counts () =
  List.iter
    (fun (name, counts, broken) ->
      let r = D.explore_dpor ~max_schedules:50_000 (scen name) in
      Alcotest.(check bool) (name ^ ": DPOR covers every class") true r.complete;
      check_counts name r counts;
      Alcotest.(check bool) (name ^ ": failures iff broken") broken
        (r.failures <> []))
    [ ("mcs-excl-2t1r", (911, 2068, 0), false);
      ("clh-excl-2t1r", (208, 428, 0), false);
      ("naive-rw-excl-2t1r", (3475, 5055, 0), true) ]

(* ------------------------------------------------------------------ *)
(* E17: the paper's staged verdicts, certified on the real mechanisms.
   Footnote 3 (test_fn3_complete above) and its siblings: on the
   writer-handoff staging (W1 mid-write, W2 then R queued) the Courtois-1
   semaphore solution and the monitor with its release-site signal
   reversed serve W2 first on every schedule, while the baton rewrite,
   the serializer and the monitor as written serve R first on every
   schedule. The monitor pair is §5.2's claim that its priority
   constraint lives in that one line. Alongside: Hoare no-barging against
   its Mesa control (strong-semaphore exclusion and FIFO drain are in
   test_explorer). *)

let certify name counts ?affix () =
  let e = entry name in
  let r =
    D.explore_dpor ~max_schedules:2_000_000 ~max_failures:100 e.Scenarios.scen
  in
  Alcotest.(check bool) (name ^ ": DPOR covers every class") true r.complete;
  (match e.Scenarios.expect with
  | Scenarios.Pass ->
    Alcotest.(check (list string)) (name ^ ": no class fails") []
      (distinct_messages r.failures)
  | Scenarios.Fail ->
    Alcotest.(check bool) (name ^ ": some class fails") true (r.failed > 0)
  | Scenarios.Always_fail ->
    Alcotest.(check int) (name ^ ": every class fails") r.explored r.failed);
  check_counts name r counts;
  Option.iter
    (fun affix ->
      List.iter
        (fun (_, m) ->
          if not (Astring.String.is_infix ~affix m) then
            Alcotest.failf "%s: unexpected failure mode: %s" name m)
        r.failures)
    affix

let e17_tests =
  let writer_first = "expected reader-first, got writer-first" in
  [ Alcotest.test_case "rw-sem all fail" `Quick
      (certify "rw-sem" (3840, 8176, 0) ~affix:writer_first);
    Alcotest.test_case "rw-sem-baton pass" `Quick
      (certify "rw-sem-baton" (7200, 20474, 0));
    Alcotest.test_case "rw-ser pass" `Quick
      (certify "rw-ser" (5376, 15270, 0));
    Alcotest.test_case "rw-mon pass" `Slow
      (certify "rw-mon" (1124352, 2713376, 0));
    Alcotest.test_case "rw-mon-flip all fail" `Slow
      (certify "rw-mon-flip" (958464, 1853216, 0) ~affix:writer_first) ]

let no_barging_tests =
  [ Alcotest.test_case "hoare monitor" `Quick
      (certify "mon-no-barging" (30880, 63736, 60));
    Alcotest.test_case "mesa control" `Quick
      (certify "mon-no-barging-mesa" (68392, 156136, 2028)
         ~affix:"waiter saw 0") ]

(* ------------------------------------------------------------------ *)
(* Determinism is checked, not assumed: state that survives from one run
   to the next makes a replayed prefix touch other objects than the run
   it replays, and the explorer must refuse rather than reuse that run's
   analysis. Both tasks lock the same mutex, chosen by the parity of a
   counter outside the scenario, so every decision keeps its shape and
   only the objects differ. *)
let test_divergence_caught () =
  let runs = ref 0 in
  let sc =
    D.scenario ~name:"persistent-parity" ~descr:"lock choice read across runs"
      (fun () ->
        incr runs;
        let ms = [| Mutex.create (); Mutex.create () |] in
        let m = ms.(!runs land 1) in
        let task () =
          for _ = 1 to 2 do
            Mutex.lock m;
            Mutex.unlock m
          done
        in
        { D.body =
            (fun () ->
              let ts = List.init 2 (fun _ -> Detrt.spawn task) in
              List.iter Detrt.join ts);
          check = (fun () -> Ok ()) })
  in
  match D.explore_dpor sc with
  | r -> Alcotest.failf "explored %d runs without noticing" r.explored
  | exception Failure m ->
    if not (Astring.String.is_infix ~affix:"scenario is not deterministic" m)
    then Alcotest.failf "unexpected failure: %s" m

(* ------------------------------------------------------------------ *)
(* Parallel sharding: partitioning the top-level frontier across domains
   must not change what is found. *)

let test_workers () =
  let sc = scen "deadlock-abba" in
  let seq = D.explore_dpor ~max_failures:1_000 sc in
  let par = D.explore_dpor ~max_failures:1_000 ~workers:2 sc in
  Alcotest.(check bool) "sequential complete" true seq.complete;
  Alcotest.(check bool) "parallel complete" true par.complete;
  Alcotest.(check bool) "used more than one worker" true (par.workers > 1);
  Alcotest.(check (list string))
    "same distinct failures"
    (distinct_messages seq.failures)
    (distinct_messages par.failures)

(* ------------------------------------------------------------------ *)
(* Footnote-3 seed regression: the printed seed from the E18 suite keeps
   reproducing, its schedule replays under strict mode, and the same
   anomaly is what the DPOR explorer reports (tested above); round-trip
   and error-path coverage for the printed schedule syntax rides along. *)

let test_fn3_seed_replay () =
  let sc = scen "rw-fig1" in
  let seed = 11 in
  let v = D.run_random ~seed sc in
  (match v.D.verdict with
  | Ok () -> Alcotest.failf "seed %d no longer fails" seed
  | Error m ->
    if not (Astring.String.is_infix ~affix:"writer-first" m) then
      Alcotest.failf "seed %d: unexpected message %s" seed m);
  let printed = D.Schedule.to_string v.D.outcome.schedule in
  let reparsed = D.Schedule.of_string printed in
  let v2 = D.replay ~strict:true sc reparsed in
  Alcotest.(check string)
    "replay of the printed schedule reproduces the verdict"
    (D.verdict_message v) (D.verdict_message v2)

let test_schedule_roundtrip () =
  let rt s = D.Schedule.to_string (D.Schedule.of_string s) in
  Alcotest.(check string) "empty" "-" (rt "-");
  Alcotest.(check string) "empty string" "-" (rt "");
  Alcotest.(check string) "single entry" "1/3" (rt "1/3");
  Alcotest.(check string) "whitespace tolerated" "1/3,0/2" (rt " 1/3 , 0/2 ");
  Alcotest.(check int) "empty parses to zero entries" 0
    (D.Schedule.length (D.Schedule.of_string "-"));
  let must_name tok s =
    match D.Schedule.of_string s with
    | _ -> Alcotest.failf "%S parsed" s
    | exception Invalid_argument m ->
      if not (Astring.String.is_infix ~affix:tok m) then
        Alcotest.failf "error for %S does not name token %S: %s" s tok m
  in
  must_name "a/b" "1/3,a/b";
  must_name "5" "5";
  must_name "1/2/3" "1/2/3,0/2";
  must_name "3/2" "3/2"

(* ------------------------------------------------------------------ *)
(* Shrink determinism: shrinking the same failing schedule twice yields
   byte-identical canonical schedules, which still fail under strict
   replay. *)

let shrink_twice sc failing =
  let s1 = D.shrink sc failing in
  let s2 = D.shrink sc failing in
  Alcotest.(check string)
    "byte-identical canonical schedules"
    (D.Schedule.to_string s1.D.shrunk)
    (D.Schedule.to_string s2.D.shrunk);
  let v = D.replay ~strict:true sc s1.D.shrunk in
  match v.D.verdict with
  | Ok () -> Alcotest.fail "shrunk schedule no longer fails"
  | Error _ -> ()

let test_shrink_deterministic_deadlock () =
  let sc = scen "deadlock-abba" in
  let r = D.explore_dfs ~max_schedules:100_000 sc in
  match r.failures with
  | [] -> Alcotest.fail "DFS found no deadlock"
  | (sched, _) :: _ -> shrink_twice sc sched

let test_shrink_deterministic_fn3 () =
  let sc = scen "rw-fig1" in
  let v = D.run_random ~seed:11 sc in
  Alcotest.(check bool) "seed 11 fails" false (D.verdict_ok v);
  shrink_twice sc v.D.outcome.schedule

(* ------------------------------------------------------------------ *)
(* Report bookkeeping: wall time and rate on both explorers, the
   strategy on sample reports. *)

let test_report_fields () =
  let sc = scen "deadlock-abba" in
  let dfs = D.explore_dfs ~max_schedules:500 sc in
  Alcotest.(check bool) "dfs secs non-negative" true (dfs.secs >= 0.0);
  Alcotest.(check bool) "dfs rate positive" true (dfs.per_sec > 0.0);
  let dpor = D.explore_dpor ~max_schedules:500 sc in
  Alcotest.(check bool) "dpor secs non-negative" true (dpor.secs >= 0.0);
  Alcotest.(check bool) "dpor rate positive" true (dpor.per_sec > 0.0);
  Alcotest.(check int) "dpor workers" 1 dpor.workers;
  let s1 = D.sample ~runs:3 sc in
  let s2 = D.sample ~runs:3 ~strategy:`Pct sc in
  Alcotest.(check bool) "sample default strategy" true (s1.strategy = `Random);
  Alcotest.(check bool) "sample pct strategy" true (s2.strategy = `Pct)

(* ------------------------------------------------------------------ *)

(* The suite is CPU-bound exploration (the two rw-mon certifications take
   about a minute each), so it drops its priority first: the real-thread
   stress suites running alongside it must not be starved of CPU. *)
let () =
  ignore (Unix.nice 19);
  Alcotest.run "dpor"
    [ ("differential", differential_tests);
      ("differential-properties", [ Testutil.qcheck_case qcheck_differential ]);
      ( "completeness",
        [ Alcotest.test_case "footnote-3 beyond DFS reach" `Quick
            test_fn3_complete;
          Alcotest.test_case "E19 storm beyond DFS reach" `Quick
            test_storm_complete;
          Alcotest.test_case "bb smallest shape" `Quick test_bb_small_complete
        ] );
      ( "primitives",
        [ Alcotest.test_case "bakery exclusion beyond DFS reach" `Quick
            test_bakery_complete;
          Alcotest.test_case "ticket lock exclusion" `Quick
            test_ticket_complete;
          Alcotest.test_case "ticket semaphore handoff" `Quick
            test_ticket_sem_complete;
          Alcotest.test_case "hot-swap flip exclusion beyond DFS reach"
            `Quick test_swap_complete;
          Alcotest.test_case "hot-swap without re-check caught" `Quick
            test_swap_norecheck_found;
          Alcotest.test_case "queue locks + broken control counts" `Quick
            test_queue_lock_counts ] );
      ("e17-verdicts", e17_tests);
      ("no-barging", no_barging_tests);
      ( "determinism",
        [ Alcotest.test_case "state persisting across runs caught" `Quick
            test_divergence_caught ] );
      ( "parallel",
        [ Alcotest.test_case "sharded = sequential" `Quick test_workers ] );
      ( "regression",
        [ Alcotest.test_case "footnote-3 printed seed" `Quick
            test_fn3_seed_replay;
          Alcotest.test_case "schedule round-trip + bad tokens" `Quick
            test_schedule_roundtrip ] );
      ( "shrink",
        [ Alcotest.test_case "deterministic on deadlock" `Quick
            test_shrink_deterministic_deadlock;
          Alcotest.test_case "deterministic on footnote-3" `Quick
            test_shrink_deterministic_fn3 ] );
      ("reports", [ Alcotest.test_case "timing + strategy" `Quick
                      test_report_fields ]) ]
