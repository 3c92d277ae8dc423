(* The benchmark harness: regenerates the qualitative and
   micro-benchmark evaluation artifacts (DESIGN.md experiment index;
   E1-E19 except E17, whose verdicts are DPOR certifications in
   test/test_dpor.ml, plus the E21 probe micro-costs) in one run. The
   E20 grid is the perf axis (`bloom_eval axis perf --full`, behind
   BENCH_E20.json).

   Part A reprints the qualitative results the paper reports (anomaly
   E1/E2, matrices E3-E5, conformance E6) — computed, not asserted.
   Part B adds the quantitative dimension the paper only gestures at
   ("serializers provide more mechanism ... at more cost"): bechamel
   micro-benchmarks for mechanism overhead (E7, E12) and wall-clock
   throughput tables for the workload problems (E8-E10, E-disk). *)

open Bechamel
open Toolkit

let section title = Printf.printf "\n==== %s ====\n%!" title

(* ------------------------------------------------------------------ *)
(* Part A: qualitative artifacts                                       *)

let part_a () =
  section "E1: footnote-3 anomaly (staged writer handoff)";
  let show name m =
    Printf.printf "%-36s -> %s\n%!" name
      (Sync_problems.Rw_harness.outcome_to_string
         (Sync_problems.Rw_harness.scenario_writer_handoff m))
  in
  show "pathexpr Figure 1 (faithful)" (module Sync_problems.Rw_path.Fig1);
  show "monitor readers-priority" (module Sync_problems.Rw_mon.Readers_prio);
  show "serializer readers-priority"
    (module Sync_problems.Rw_ser.Readers_prio);
  show "semaphore baton readers-priority"
    (module Sync_problems.Rw_sem.Readers_prio_baton);
  show "semaphore Courtois problem 1"
    (module Sync_problems.Rw_sem.Readers_prio);
  show "csp readers-priority" (module Sync_problems.Rw_csp.Readers_prio);

  section "E2: Figure 1 vs Figure 2 modification cost (fragment diff)";
  let pairings = Sync_eval.Independence.analyze Sync_eval.Registry.all in
  let fig_pairs =
    List.filter
      (fun p ->
        p.Sync_eval.Independence.mechanism = "pathexpr"
        && p.Sync_eval.Independence.variant_a = "fig1-readers-priority"
        && p.Sync_eval.Independence.variant_b = "fig2-writers-priority")
      pairings
  in
  Sync_eval.Independence.pp Format.std_formatter fig_pairs;
  print_endline
    "(low similarity on the SHARED exclusion constraint = the paper's\n\
    \ 'a modification to one constraint involves changing the entire\n\
    \ solution')";

  section "E3: expressive-power matrix";
  let card = Sync_eval.Scorecard.build ~run_conformance:false ~axes:[] () in
  Sync_eval.Expressiveness.pp Format.std_formatter card.matrix;
  (match card.discrepancies with
  | [] -> print_endline "agrees with the paper's Section-5 conclusions"
  | ds ->
    List.iter
      (fun (m, k, why) ->
        Printf.printf "DISCREPANCY %s/%s: %s\n" m
          (Sync_taxonomy.Info.to_string k)
          why)
      ds);

  section "E4: constraint independence (shared-constraint reuse)";
  Sync_eval.Independence.pp_summary Format.std_formatter card.reuse;

  section "E5: modularity";
  Sync_eval.Modularity.pp Format.std_formatter card.modularity;

  section "E6: conformance matrix (all solutions, machine-checked)";
  let results = Sync_eval.Conformance.run Sync_eval.Registry.all in
  Sync_eval.Conformance.pp Format.std_formatter results;
  match Sync_eval.Conformance.regressions results with
  | [] -> print_endline "no regressions"
  | rs -> Printf.printf "%d REGRESSION(S)\n" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Part B: bechamel micro-benchmarks                                   *)

let ols =
  Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]

let cfg =
  Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()

let run_group name tests =
  let grouped = Test.make_grouped ~name tests in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (k, v) ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> Printf.printf "%-44s %12.0f ns/op\n%!" k est
      | Some _ | None -> Printf.printf "%-44s %12s\n%!" k "n/a")
    (List.sort compare rows)

(* E7: uncontended entry/exit cost of each mechanism's critical region. *)
let bench_overhead () =
  section "E7: uncontended critical-region overhead (ns/op)";
  let sem = Sync_platform.Semaphore.Counting.create 1 in
  let weak = Sync_platform.Semaphore.Counting.create ~fairness:`Weak 1 in
  let hoare = Sync_monitor.Monitor.create ~discipline:`Hoare () in
  let mesa = Sync_monitor.Monitor.create ~discipline:`Mesa () in
  let ser = Sync_serializer.Serializer.create () in
  let mutex = Mutex.create () in
  run_group "e7"
    [ Test.make ~name:"stdlib-mutex" (Staged.stage (fun () ->
          Mutex.lock mutex;
          Mutex.unlock mutex));
      Test.make ~name:"semaphore-strong" (Staged.stage (fun () ->
          Sync_platform.Semaphore.Counting.p sem;
          Sync_platform.Semaphore.Counting.v sem));
      Test.make ~name:"semaphore-weak" (Staged.stage (fun () ->
          Sync_platform.Semaphore.Counting.p weak;
          Sync_platform.Semaphore.Counting.v weak));
      Test.make ~name:"monitor-hoare" (Staged.stage (fun () ->
          Sync_monitor.Monitor.with_monitor hoare ignore));
      Test.make ~name:"monitor-mesa" (Staged.stage (fun () ->
          Sync_monitor.Monitor.with_monitor mesa ignore));
      Test.make ~name:"serializer" (Staged.stage (fun () ->
          Sync_serializer.Serializer.with_serializer ser ignore));
      (let ccr = Sync_ccr.Ccr.create () in
       Test.make ~name:"ccr-region" (Staged.stage (fun () ->
           Sync_ccr.Ccr.region ccr ignore)));
      (let seqr = Sync_platform.Eventcount.Sequencer.create () in
       let done_ = Sync_platform.Eventcount.Eventcount.create () in
       Test.make ~name:"eventcount-ticket+await+advance"
         (Staged.stage (fun () ->
              let t = Sync_platform.Eventcount.Sequencer.ticket seqr in
              Sync_platform.Eventcount.Eventcount.await done_ t;
              Sync_platform.Eventcount.Eventcount.advance done_))) ]

(* E12: the two path-expression runtimes on identical specs. *)
let bench_engines () =
  section "E12: path-expression engines (semaphore translation vs gate)";
  let mk engine = Sync_pathexpr.Pathexpr.of_string ~engine "path use end" in
  let sem_engine = mk `Semaphore in
  let gate_engine = mk `Gate in
  let rw_sem = Sync_pathexpr.Pathexpr.of_string "path { read } , write end" in
  run_group "e12"
    [ Test.make ~name:"exclusive-op/semaphore-engine"
        (Staged.stage (fun () ->
             Sync_pathexpr.Pathexpr.run sem_engine "use" ignore));
      Test.make ~name:"exclusive-op/gate-engine"
        (Staged.stage (fun () ->
             Sync_pathexpr.Pathexpr.run gate_engine "use" ignore));
      Test.make ~name:"reader-burst-op/semaphore-engine"
        (Staged.stage (fun () ->
             Sync_pathexpr.Pathexpr.run rw_sem "read" ignore)) ]

(* E10: the two-stage queue's ticket overhead — FCFS admission vs plain
   readers-priority admission on the same monitor skeleton. *)
let bench_two_stage () =
  section "E10: two-stage queue overhead (uncontended read admission)";
  let null_read ~pid = ignore pid; 0 in
  let null_write ~pid = ignore pid in
  let plain =
    Sync_problems.Rw_mon.Readers_prio.create ~read:null_read ~write:null_write
  in
  let two_stage =
    Sync_problems.Rw_mon.Fcfs.create ~read:null_read ~write:null_write
  in
  let ser_fcfs =
    Sync_problems.Rw_ser.Fcfs.create ~read:null_read ~write:null_write
  in
  run_group "e10"
    [ Test.make ~name:"monitor-readers-prio-read"
        (Staged.stage (fun () ->
             ignore (Sync_problems.Rw_mon.Readers_prio.read plain ~pid:0)));
      Test.make ~name:"monitor-two-stage-fcfs-read"
        (Staged.stage (fun () ->
             ignore (Sync_problems.Rw_mon.Fcfs.read two_stage ~pid:0)));
      Test.make ~name:"serializer-single-queue-fcfs-read"
        (Staged.stage (fun () ->
             ignore (Sync_problems.Rw_ser.Fcfs.read ser_fcfs ~pid:0))) ]

(* E8 companion: uncontended put+get pair through each buffer solution. *)
let bench_buffer_pair () =
  section "E8a: bounded-buffer put+get pair, uncontended (ns/op)";
  let pair_test name (module B : Sync_problems.Bb_intf.S) =
    let ring = Sync_resources.Ring.create ~work:0 8 in
    let t =
      B.create ~capacity:8
        ~put:(fun ~pid:_ v -> Sync_resources.Ring.put ring v)
        ~get:(fun ~pid:_ -> Sync_resources.Ring.get ring)
    in
    Test.make ~name
      (Staged.stage (fun () ->
           B.put t ~pid:0 1;
           ignore (B.get t ~pid:0)))
  in
  run_group "e8a"
    [ pair_test "semaphore" (module Sync_problems.Bb_sem);
      pair_test "monitor" (module Sync_problems.Bb_mon);
      pair_test "serializer" (module Sync_problems.Bb_ser);
      pair_test "pathexpr" (module Sync_problems.Bb_path);
      pair_test "csp" (module Sync_problems.Bb_csp);
      pair_test "ccr" (module Sync_problems.Bb_ccr);
      pair_test "eventcount" (module Sync_problems.Bb_evc) ]

(* ------------------------------------------------------------------ *)
(* Part C: wall-clock throughput tables (contended workloads)          *)

let wall f =
  let t0 = Sync_platform.Clock.now_ns () in
  f ();
  Int64.to_float (Sync_platform.Clock.elapsed_ns t0) /. 1e9

let bench_bb_throughput () =
  section "E8b: bounded-buffer throughput, 2 producers + 2 consumers";
  let items = 4000 in
  let run name (module B : Sync_problems.Bb_intf.S) =
    let seconds =
      wall (fun () ->
          match
            Sync_problems.Bb_harness.run
              (module B)
              ~capacity:8 ~producers:2 ~consumers:2
              ~items_per_producer:(items / 2) ~work:0 ~seed:1L ()
          with
          | _report -> ())
    in
    Printf.printf "%-14s %9.0f items/s\n%!" name (float_of_int items /. seconds)
  in
  run "semaphore" (module Sync_problems.Bb_sem);
  run "monitor" (module Sync_problems.Bb_mon);
  run "serializer" (module Sync_problems.Bb_ser);
  run "pathexpr" (module Sync_problems.Bb_path);
  run "csp" (module Sync_problems.Bb_csp);
  run "ccr" (module Sync_problems.Bb_ccr);
  run "eventcount" (module Sync_problems.Bb_evc)

let bench_rw_throughput () =
  section "E9: readers-writers throughput, 4 readers + 1 writer (read-heavy)";
  let run name (module S : Sync_problems.Rw_intf.S) =
    let reads = 2000 and writes = 100 in
    let store = Sync_resources.Store.create ~work:10 () in
    let t =
      S.create
        ~read:(fun ~pid:_ -> Sync_resources.Store.read store)
        ~write:(fun ~pid:_ -> Sync_resources.Store.write store)
    in
    let seconds =
      wall (fun () ->
          Sync_platform.Process.run_all ~backend:`Thread
            (List.init 4 (fun r () ->
                 for _ = 1 to reads / 4 do
                   ignore (S.read t ~pid:r)
                 done)
            @ [ (fun () ->
                  for _ = 1 to writes do
                    S.write t ~pid:200
                  done) ]))
    in
    S.stop t;
    Printf.printf "%-36s %9.0f ops/s\n%!" name
      (float_of_int (reads + writes) /. seconds)
  in
  run "semaphore courtois-1" (module Sync_problems.Rw_sem.Readers_prio);
  run "semaphore baton" (module Sync_problems.Rw_sem.Readers_prio_baton);
  run "monitor readers-prio" (module Sync_problems.Rw_mon.Readers_prio);
  run "monitor fcfs (two-stage)" (module Sync_problems.Rw_mon.Fcfs);
  run "serializer readers-prio (crowds)"
    (module Sync_problems.Rw_ser.Readers_prio);
  run "serializer fcfs (single queue)" (module Sync_problems.Rw_ser.Fcfs);
  run "pathexpr fig1" (module Sync_problems.Rw_path.Fig1);
  run "pathexpr fig2" (module Sync_problems.Rw_path.Fig2);
  run "pathexpr plain" (module Sync_problems.Rw_path.Plain);
  run "csp readers-prio" (module Sync_problems.Rw_csp.Readers_prio);
  run "csp fcfs" (module Sync_problems.Rw_csp.Fcfs);
  run "ccr readers-prio" (module Sync_problems.Rw_ccr.Readers_prio);
  run "ccr fcfs" (module Sync_problems.Rw_ccr.Fcfs)

let bench_starvation () =
  section "E16: writer starvation (staged reader relay)";
  print_endline
    "Staging: R1 reading; W queues; each next reader arrives before the \
     previous one leaves.";
  let show name m =
    Printf.printf "%-36s -> %s\n%!" name
      (if Sync_problems.Rw_harness.scenario_writer_starvation m then
         "writer STARVED: admitted after every reader"
       else "writer admitted as soon as R1 left")
  in
  show "monitor readers-priority" (module Sync_problems.Rw_mon.Readers_prio);
  show "monitor fcfs" (module Sync_problems.Rw_mon.Fcfs);
  show "monitor writers-priority" (module Sync_problems.Rw_mon.Writers_prio);
  show "serializer readers-priority"
    (module Sync_problems.Rw_ser.Readers_prio);
  show "serializer fcfs" (module Sync_problems.Rw_ser.Fcfs);
  show "ccr readers-priority" (module Sync_problems.Rw_ccr.Readers_prio);
  show "ccr fcfs" (module Sync_problems.Rw_ccr.Fcfs);
  show "semaphore Courtois problem 1"
    (module Sync_problems.Rw_sem.Readers_prio);
  show "semaphore baton readers-priority"
    (module Sync_problems.Rw_sem.Readers_prio_baton);
  show "semaphore writers-priority" (module Sync_problems.Rw_sem.Writers_prio);
  show "pathexpr Figure 1" (module Sync_problems.Rw_path.Fig1);
  show "pathexpr Figure 2" (module Sync_problems.Rw_path.Fig2);
  show "csp readers-priority" (module Sync_problems.Rw_csp.Readers_prio);
  show "csp fcfs" (module Sync_problems.Rw_csp.Fcfs);
  print_endline
    "(the paper, of readers-priority: 'This specification allows writers \
     to starve.')"

let bench_disk_travel () =
  section "E-disk: arm travel, SCAN vs FCFS (backlogged workload)";
  let run name m =
    let travel, accesses =
      Sync_problems.Disk_harness.run_stress m ~tracks:500 ~workers:8
        ~requests_each:25 ~hold_s:0.002 ~seed:42L ()
    in
    Printf.printf "%-22s travel %6d over %3d accesses (%.1f/access)\n%!" name
      travel accesses
      (float_of_int travel /. float_of_int accesses);
    travel
  in
  let scan = run "monitor SCAN" (module Sync_problems.Disk_mon) in
  let _ = run "serializer SCAN" (module Sync_problems.Disk_ser) in
  let _ = run "semaphore SCAN" (module Sync_problems.Disk_sem) in
  let _ = run "pathexpr SCAN" (module Sync_problems.Disk_path) in
  let _ = run "csp SCAN" (module Sync_problems.Disk_csp) in
  let fcfs = run "FCFS baseline" (module Sync_problems.Disk_fcfs) in
  Printf.printf "SCAN/FCFS travel ratio: %.2f (paper-motivating win)\n%!"
    (float_of_int scan /. float_of_int fcfs)

(* E18: deterministic-scheduler throughput — the cost of one fully
   explored schedule (run + record + trace check) per scenario. This is
   the budget figure behind the DFS/random exploration caps in
   test_detsched: schedules/sec = 1e9 / (ns/op). *)
let bench_detsched () =
  section "E18: deterministic scheduler (ns per explored schedule)";
  let mk name =
    match Sync_detsched.Scenarios.find name with
    | None -> failwith ("unknown scenario " ^ name)
    | Some e ->
      let seed = ref 0 in
      Test.make ~name
        (Staged.stage (fun () ->
             incr seed;
             ignore
               (Sync_detsched.Detsched.run_random ~seed:!seed
                  e.Sync_detsched.Scenarios.scen)))
  in
  run_group "e18"
    [ mk "bb-sem"; mk "bb-mon"; mk "rw-fig1"; mk "fcfs-mon-hoare";
      mk "deadlock-abba" ]

(* E19: robustness — what surviving faults costs. (a) the fault-site
   instrumentation: the uncontended semaphore buffer pair with no plan
   installed (each site is one ref read) vs under a plan that never
   fires (each hit consults the plan), plus the timed acquire variants
   against their plain counterparts. (b) recovery wall-clock: the abort
   workload under the mixed probabilistic plan from the robustness
   matrix, with the post-fault invariants re-checked. *)
let bench_robustness () =
  section "E19a: fault-site and timed-wait overhead (ns/op)";
  let ring = Sync_resources.Ring.create ~work:0 8 in
  let buf =
    Sync_problems.Bb_sem.create ~capacity:8
      ~put:(fun ~pid:_ v -> Sync_resources.Ring.put ring v)
      ~get:(fun ~pid:_ -> Sync_resources.Ring.get ring)
  in
  let pair () =
    Sync_problems.Bb_sem.put buf ~pid:0 1;
    ignore (Sync_problems.Bb_sem.get buf ~pid:0)
  in
  let sem = Sync_platform.Semaphore.Counting.create 1 in
  let mutex = Sync_platform.Mutex.create () in
  run_group "e19a"
    [ Test.make ~name:"bb-sem-pair/no-plan" (Staged.stage pair);
      Test.make ~name:"semaphore-p+v" (Staged.stage (fun () ->
          Sync_platform.Semaphore.Counting.p sem;
          Sync_platform.Semaphore.Counting.v sem));
      Test.make ~name:"semaphore-acquire_for+v" (Staged.stage (fun () ->
          ignore
            (Sync_platform.Semaphore.Counting.acquire_for sem
               ~timeout_ns:1_000_000_000L);
          Sync_platform.Semaphore.Counting.v sem));
      Test.make ~name:"mutex-lock+unlock" (Staged.stage (fun () ->
          Sync_platform.Mutex.lock mutex;
          Sync_platform.Mutex.unlock mutex));
      Test.make ~name:"mutex-try_lock_for+unlock" (Staged.stage (fun () ->
          ignore
            (Sync_platform.Mutex.try_lock_for mutex
               ~timeout_ns:1_000_000_000L);
          Sync_platform.Mutex.unlock mutex)) ];
  let never =
    Sync_platform.Fault.plan
      [ ("semaphore.pre-wait", Sync_platform.Fault.Never);
        ("waitq.pre-wait", Sync_platform.Fault.Never) ]
  in
  Sync_platform.Fault.with_plan never (fun () ->
      run_group "e19a-plan"
        [ Test.make ~name:"bb-sem-pair/never-firing-plan" (Staged.stage pair) ]);

  section "E19b: abort-recovery wall-clock (mixed probabilistic plan)";
  let items = 2000 in
  let mixed =
    Sync_platform.Fault.plan ~seed:42
      [ ("bb.put.body", Sync_platform.Fault.Prob 0.05);
        ("bb.get.body", Sync_platform.Fault.Prob 0.05);
        ("waitq.pre-wait", Sync_platform.Fault.Prob 0.04);
        ("semaphore.pre-wait", Sync_platform.Fault.Prob 0.04);
        ("serializer.pre-wait", Sync_platform.Fault.Prob 0.04);
        ("ccr.pre-wait", Sync_platform.Fault.Prob 0.04);
        ("csp.pre-wait", Sync_platform.Fault.Prob 0.04) ]
  in
  let run name (module B : Sync_problems.Bb_intf.S) =
    let report = ref None in
    let seconds =
      wall (fun () ->
          report :=
            Some
              (Sync_platform.Fault.with_plan mixed (fun () ->
                   Sync_problems.Bb_harness.run_abort
                     (module B)
                     ~capacity:8 ~producers:2 ~consumers:2
                     ~items_per_producer:(items / 2) ())))
    in
    let r = Option.get !report in
    let verdict =
      match Sync_problems.Bb_harness.check_abort ~producers:2 r with
      | Ok () -> "invariants held"
      | Error m -> "INVARIANT FAILURE: " ^ m
    in
    Printf.printf
      "%-14s %9.0f items/s  (%d puts aborted, %d gets aborted; %s)\n%!" name
      (float_of_int items /. seconds)
      r.Sync_problems.Bb_harness.aborted_puts
      r.Sync_problems.Bb_harness.aborted_gets verdict
  in
  run "semaphore" (module Sync_problems.Bb_sem);
  run "monitor" (module Sync_problems.Bb_mon);
  run "serializer" (module Sync_problems.Bb_ser);
  run "pathexpr" (module Sync_problems.Bb_path);
  run "ccr" (module Sync_problems.Bb_ccr)

let bench_fairness_ablation () =
  section "E-ablation: weak vs strong semaphore barging";
  (* One waiter is parked on an empty semaphore; the releaser does V and
     immediately tries to grab the unit back (a barging newcomer). Under
     strong semantics the unit was handed to the queued waiter, so the
     barge always fails; under weak semantics the value is publicly
     visible and the still-running releaser usually steals it — exactly
     why classic FCFS schemes silently assume strong semaphores. *)
  let barges fairness =
    let rounds = 200 in
    let sem = Sync_platform.Semaphore.Counting.create ~fairness 0 in
    let stolen = Atomic.make 0 in
    let stop = Atomic.make false in
    (* A dedicated barger spins on try_p the whole time; any success means
       it consumed a unit that a parked waiter was queued for. *)
    let barger =
      Sync_platform.Process.spawn ~backend:`Thread (fun () ->
          while not (Atomic.get stop) do
            if Sync_platform.Semaphore.Counting.try_p sem then begin
              Atomic.incr stolen;
              Sync_platform.Semaphore.Counting.v sem
            end;
            Thread.yield ()
          done)
    in
    for _ = 1 to rounds do
      let waiter =
        Sync_platform.Process.spawn ~backend:`Thread (fun () ->
            Sync_platform.Semaphore.Counting.p sem)
      in
      while Sync_platform.Semaphore.Counting.waiters sem = 0 do
        Thread.yield ()
      done;
      Sync_platform.Semaphore.Counting.v sem;
      Sync_platform.Process.join waiter
    done;
    Atomic.set stop true;
    Sync_platform.Process.join barger;
    (Atomic.get stolen, rounds)
  in
  let s, n = barges `Strong in
  Printf.printf
    "strong semaphore: barged %3d/%d (guaranteed 0: handoff to queue head)\n%!"
    s n;
  let s, n = barges `Weak in
  Printf.printf
    "weak semaphore:   barged %3d/%d (barging permitted; platform-dependent)\n%!"
    s n;
  (* Hoare vs Mesa barging, deterministic by construction: a waiter waits
     for a token; a barger is already parked at the monitor entry when the
     signaller (inside the monitor) deposits the token and signals. Under
     Hoare the waiter receives the monitor directly and finds the token.
     Under Mesa the woken waiter re-queues BEHIND the barger, which steals
     the token first — the reason Mesa code needs re-check loops. *)
  let mesa_barges discipline =
    let open Sync_monitor in
    let m = Monitor.create ~discipline () in
    let c = Monitor.Cond.create m in
    let token = ref false in
    let waiter_saw = ref false in
    let waiter =
      Sync_platform.Process.spawn ~backend:`Thread (fun () ->
          Monitor.with_monitor m (fun () ->
              Monitor.Cond.wait c;
              waiter_saw := !token;
              token := false))
    in
    while Monitor.Cond.count c = 0 do
      Thread.yield ()
    done;
    let stolen = ref false in
    Monitor.with_monitor m (fun () ->
        let barger =
          Sync_platform.Process.spawn ~backend:`Thread (fun () ->
              Monitor.with_monitor m (fun () ->
                  if !token then begin
                    token := false;
                    stolen := true
                  end))
        in
        (* Barger is parked at the entry while we hold the monitor. *)
        while Monitor.entry_waiters m = 0 do
          Thread.yield ()
        done;
        ignore barger;
        token := true;
        Monitor.Cond.signal c);
    Sync_platform.Process.join waiter;
    (!stolen, !waiter_saw)
  in
  let stolen, saw = mesa_barges `Hoare in
  Printf.printf "Hoare monitor: barger stole token = %b, waiter saw it = %b\n%!"
    stolen saw;
  let stolen, saw = mesa_barges `Mesa in
  Printf.printf "Mesa monitor:  barger stole token = %b, waiter saw it = %b\n%!"
    stolen saw

(* E21: what the trace probes cost. With tracing disabled every probe is
   one atomic load compiled around the instrumented operation, so the
   platform mutex should price within noise of E7's numbers; with tracing
   enabled each op additionally writes its spans into the per-thread ring.
   The enabled rows run inside enable/disable brackets with a fresh ring,
   so nothing here leaks trace state into later sections. *)
let bench_trace_probes () =
  section "E21: trace probe overhead (ns/op, disabled vs enabled)";
  let mutex = Sync_platform.Mutex.create () in
  let sem = Sync_platform.Semaphore.Counting.create 1 in
  run_group "e21-disabled"
    [ Test.make ~name:"platform-mutex/tracing-off" (Staged.stage (fun () ->
          Sync_platform.Mutex.lock mutex;
          Sync_platform.Mutex.unlock mutex));
      Test.make ~name:"semaphore-p+v/tracing-off" (Staged.stage (fun () ->
          Sync_platform.Semaphore.Counting.p sem;
          Sync_platform.Semaphore.Counting.v sem)) ];
  Sync_trace.Probe.reset ();
  Sync_trace.Probe.enable ();
  Fun.protect ~finally:Sync_trace.Probe.disable (fun () ->
      run_group "e21-enabled"
        [ Test.make ~name:"platform-mutex/tracing-on" (Staged.stage (fun () ->
              Sync_platform.Mutex.lock mutex;
              Sync_platform.Mutex.unlock mutex));
          Test.make ~name:"semaphore-p+v/tracing-on" (Staged.stage (fun () ->
              Sync_platform.Semaphore.Counting.p sem;
              Sync_platform.Semaphore.Counting.v sem)) ]);
  let dropped = Sync_trace.Probe.dropped () in
  Sync_trace.Probe.reset ();
  Printf.printf
    "(enabled rows wrote into per-thread rings; %d event(s) dropped on wrap)\n%!"
    dropped

(* E22: the contention-adaptive substrate, uncontended single-thread
   cost. The tier is a creation-time property, so each fast-variant
   primitive is built inside [Fastpath.with_enabled]; the default rows
   are the same operations on the stdlib-backed substrate. The
   contended side of E22 is the tiers axis (BENCH_E22.json) —
   here we price the fast paths themselves: CAS lock vs pthread lock,
   fetch-and-add V vs locked V, Vyukov ring vs locked ring. *)
let bench_fastpath () =
  section "E22: fast-path substrate, uncontended (default vs fast tier)";
  let fast f = Sync_platform.Fastpath.with_enabled f in
  let dmutex = Sync_platform.Mutex.create () in
  let fmutex = fast (fun () -> Sync_platform.Mutex.create ()) in
  let dweak = Sync_platform.Semaphore.Counting.create ~fairness:`Weak 1 in
  let fweak =
    fast (fun () -> Sync_platform.Semaphore.Counting.create ~fairness:`Weak 1)
  in
  let ring = Sync_resources.Ring.create ~work:0 8 in
  let fring = Sync_resources.Fastring.create ~work:0 8 in
  run_group "e22"
    [ Test.make ~name:"mutex-lock+unlock/default" (Staged.stage (fun () ->
          Sync_platform.Mutex.lock dmutex;
          Sync_platform.Mutex.unlock dmutex));
      Test.make ~name:"mutex-lock+unlock/fast" (Staged.stage (fun () ->
          Sync_platform.Mutex.lock fmutex;
          Sync_platform.Mutex.unlock fmutex));
      Test.make ~name:"weak-semaphore-p+v/default" (Staged.stage (fun () ->
          Sync_platform.Semaphore.Counting.p dweak;
          Sync_platform.Semaphore.Counting.v dweak));
      Test.make ~name:"weak-semaphore-p+v/fast" (Staged.stage (fun () ->
          Sync_platform.Semaphore.Counting.p fweak;
          Sync_platform.Semaphore.Counting.v fweak));
      Test.make ~name:"ring-put+get/default" (Staged.stage (fun () ->
          Sync_resources.Ring.put ring 1;
          ignore (Sync_resources.Ring.get ring)));
      Test.make ~name:"ring-put+get/fast-vyukov" (Staged.stage (fun () ->
          Sync_resources.Fastring.put fring 1;
          ignore (Sync_resources.Fastring.get fring))) ]

let () =
  print_endline
    "Bloom (SOSP'79) 'Evaluating Synchronization Mechanisms' — full \
     experiment regeneration";
  part_a ();
  bench_overhead ();
  bench_engines ();
  bench_two_stage ();
  bench_buffer_pair ();
  bench_bb_throughput ();
  bench_rw_throughput ();
  bench_starvation ();
  bench_disk_travel ();
  bench_fairness_ablation ();
  bench_detsched ();
  bench_robustness ();
  bench_trace_probes ();
  bench_fastpath ();
  print_endline "\nall experiments regenerated"
