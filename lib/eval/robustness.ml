(* The robustness axis (E19): how each mechanism behaves when the code it
   synchronizes fails. Two scenario families per mechanism x problem cell:

   - {e aborts}: deterministic fault plans inject exceptions into
     operation bodies, blocking entries and wakeup paths; the existing
     trace checkers must still pass on the surviving operations. The
     bounded-buffer and readers-writers mixes run on real threads; the
     FCFS round is staged, so it runs on the deterministic runtime, once
     per {!Sync_problems.Staged} seed.
   - {e storms} (deterministic runtime): high-rate probabilistic
     cancellation at every blocking site, explored over seeded random
     schedules and — for the smallest instance — bounded-exhaustive DFS,
     so a racy recovery path cannot hide behind one lucky interleaving.

   Eventcounts are the documented exception: a sequencer ticket is a
   completion obligation (there is no way to return one), so aborts are
   structurally unrecoverable and the row reports that instead of a
   number (see bb_evc.ml and docs/robustness.md). *)

open Sync_platform
open Sync_problems

type row = {
  mechanism : string;
  problem : string;
  scenario : string; (* "aborts" | "storm" | "dfs" (the exhaustive storm) *)
  policy : string;
  runs : int;
  recovered : int;
  detail : string;
}

let policy_of = function
  | "semaphore" -> "rollback (solution compensates)"
  | "monitor" ->
    Fault.abort_policy_to_string Sync_monitor.Monitor.abort_policy
  | "serializer" ->
    Fault.abort_policy_to_string Sync_serializer.Serializer.abort_policy
  | "pathexpr" ->
    Fault.abort_policy_to_string Sync_pathexpr.Pathexpr.abort_policy
  | "ccr" -> Fault.abort_policy_to_string Sync_ccr.Ccr.abort_policy
  | "csp" -> Fault.abort_policy_to_string Sync_csp.Csp.abort_policy
  | "eventcount" -> "none (ticket = completion obligation)"
  | _ -> "platform"

(* Every mechanism-internal blocking site; enabling all of them at once is
   harmless (sites that never fire simply contribute no hits). *)
let blocking_sites trigger =
  [ ("waitq.pre-wait", trigger); ("semaphore.pre-wait", trigger);
    ("serializer.pre-wait", trigger); ("ccr.pre-wait", trigger);
    ("csp.pre-wait", trigger) ]

(* The abort matrix runs each plan once; triggers must eventually stop
   firing (consumers retry aborted gets), so no [Always] here. *)
let mixed_plan ~body_sites =
  Fault.plan ~seed:42
    (List.map (fun s -> (s, Fault.Prob 0.05)) body_sites
    @ blocking_sites (Fault.Prob 0.04))

let abort_plans ~body_sites =
  let body t = List.map (fun s -> (s, t)) body_sites in
  [ ("body-nth2", Fault.plan (body (Fault.Nth 2)));
    ("body-every5", Fault.plan (body (Fault.Every 5)));
    ("prewait-every4", Fault.plan (blocking_sites (Fault.Every 4)));
    ("postwake-nth2", Fault.plan [ ("waitq.post-wakeup", Fault.Nth 2) ]);
    ("mixed-prob", mixed_plan ~body_sites) ]

let row_of_plans ~mechanism ~problem plans run_plan =
  let failures =
    List.filter_map
      (fun (name, plan) ->
        match run_plan plan with
        | Ok () -> None
        | Error m -> Some (name ^ ": " ^ m)
        | exception Sync_resources.Busywork.Ill_synchronized m ->
          Some (name ^ ": resource contract violated: " ^ m)
        | exception e -> Some (name ^ ": escaped: " ^ Printexc.to_string e))
      plans
  in
  { mechanism; problem; scenario = "aborts";
    policy = policy_of mechanism;
    runs = List.length plans;
    recovered = List.length plans - List.length failures;
    detail =
      (match failures with
      | [] -> "all plans recovered"
      | f :: _ -> f) }

let bb_aborts (mechanism, (module B : Bb_intf.S)) =
  row_of_plans ~mechanism ~problem:"bounded-buffer"
    (abort_plans ~body_sites:[ "bb.put.body"; "bb.get.body" ])
    (fun plan ->
      let r =
        Fault.with_plan plan (fun () ->
            Bb_harness.run_abort (module B) ~capacity:3 ~producers:2
              ~consumers:2 ~items_per_producer:20 ())
      in
      Bb_harness.check_abort ~producers:2 r)

let rw_aborts (mechanism, (module S : Rw_intf.S)) =
  row_of_plans ~mechanism ~problem:"readers-writers"
    (abort_plans ~body_sites:[ "rw.read.body"; "rw.write.body" ])
    (fun plan ->
      let r =
        Fault.with_plan plan (fun () ->
            Rw_harness.run_abort (module S) ~readers:3 ~writers:2
              ~reads_each:15 ~writes_each:6 ())
      in
      Rw_harness.check_abort r)

let fcfs_aborts (mechanism, (module S : Fcfs_intf.S)) =
  row_of_plans ~mechanism ~problem:"fcfs"
    (abort_plans ~body_sites:[ "fcfs.use.body" ])
    (fun plan ->
      Staged.check (fun () ->
          Fcfs_harness.check_abort
            (Fault.with_plan plan (fun () ->
                 Fcfs_harness.run_abort (module S) ~users:5 ()))))

let evc_row problem =
  { mechanism = "eventcount"; problem; scenario = "aborts";
    policy = policy_of "eventcount"; runs = 0; recovered = 0;
    detail = "excluded: aborts structurally unrecoverable" }

(* ------------------------------------------------------------------ *)
(* Storms: deterministic-runtime cancellation at every blocking site.  *)

let storm_plan ~seed =
  Fault.plan ~seed
    (blocking_sites (Fault.Prob 0.08) @ [ ("waitq.post-wakeup", Fault.Prob 0.05) ])

let bb_storm_scenario (module B : Bb_intf.S) ~plan_seed =
  Sync_detsched.Detsched.scenario ~name:("storm-bb-" ^ B.mechanism)
    ~descr:"cancellation storm over det schedules"
    (fun () ->
      let report = ref None in
      { Sync_detsched.Detsched.body =
          (fun () ->
            report :=
              Some
                (Fault.with_plan (storm_plan ~seed:plan_seed) (fun () ->
                     Bb_harness.run_abort (module B) ~backend:`Det ~capacity:2
                       ~producers:2 ~consumers:2 ~items_per_producer:4 ())));
        check =
          (fun () ->
            match !report with
            | None -> Error "scenario body did not run"
            | Some r -> Bb_harness.check_abort ~producers:2 r) })

let det_row ~mechanism ~problem ?(runs = 8) ?(max_steps = 200_000) scen =
  let failures = ref [] in
  for seed = 1 to runs do
    match Sync_detsched.Detsched.run_random ~max_steps ~seed scen with
    | v ->
      if not (Sync_detsched.Detsched.verdict_ok v) then
        failures :=
          (seed, Sync_detsched.Detsched.verdict_message v) :: !failures
    | exception e ->
      failures := (seed, "escaped: " ^ Printexc.to_string e) :: !failures
  done;
  { mechanism; problem; scenario = "storm";
    policy = policy_of mechanism;
    runs;
    recovered = runs - List.length !failures;
    detail =
      (match List.rev !failures with
      | [] -> Printf.sprintf "seeds 1-%d clean" runs
      | (seed, m) :: _ -> Printf.sprintf "seed %d: %s" seed m) }

(* The smallest storm instance, searched exhaustively (bounded): a racy
   recovery path in the most-used rollback machinery (semaphore redonate
   via waitq) cannot hide behind scheduling luck. *)
let dfs_storm_row () =
  let scen = Sync_detsched.Scenarios.storm_bb_sem () in
  let r = Sync_detsched.Detsched.explore_dfs ~max_steps:50_000 ~max_schedules:2_000 scen in
  { mechanism = "semaphore"; problem = "bounded-buffer"; scenario = "dfs";
    policy = policy_of "semaphore";
    runs = r.Sync_detsched.Detsched.explored;
    recovered = r.Sync_detsched.Detsched.explored - List.length r.Sync_detsched.Detsched.failures;
    detail =
      (match r.Sync_detsched.Detsched.failures with
      | [] ->
        Printf.sprintf "DFS: %d schedules%s, all recovered" r.Sync_detsched.Detsched.explored
          (if r.Sync_detsched.Detsched.complete then " (complete)" else "")
      | (sched, m) :: _ ->
        Printf.sprintf "DFS counterexample %s: %s"
          (Sync_detsched.Detsched.Schedule.to_string sched)
          m) }

(* ------------------------------------------------------------------ *)
(* Platform timed-wait storms: timeouts hammering the timed variants.  *)

(* Final-state probes must run inside [body]: the scenario's [check] runs
   after [Detrt.run] returns, where Det-backed primitives refuse to
   operate. *)
let storm_semaphore =
  Sync_detsched.Detsched.scenario ~name:"storm-semaphore-timed"
    ~descr:"5 tasks x 3 timed acquires on a 2-token semaphore"
    (fun () ->
      let sem = Semaphore.Counting.create 2 in
      let final = ref (-1) in
      { Sync_detsched.Detsched.body =
          (fun () ->
            let tasks =
              List.init 5 (fun _ ->
                  Process.spawn (fun () ->
                      for _ = 1 to 3 do
                        if
                          Semaphore.Counting.acquire_for sem
                            ~timeout_ns:150_000L
                        then begin
                          Detrt.relax ();
                          Semaphore.Counting.v sem
                        end
                        else Detrt.relax ()
                      done))
            in
            List.iter Process.join tasks;
            final := Semaphore.Counting.value sem);
        check =
          (fun () ->
            if !final = 2 then Ok ()
            else Error (Printf.sprintf "token leak: final value %d" !final)) })

let storm_mutex =
  Sync_detsched.Detsched.scenario ~name:"storm-mutex-timed"
    ~descr:"4 tasks x 3 timed lock attempts on one mutex"
    (fun () ->
      let m = Mutex.create () in
      let free = ref false in
      { Sync_detsched.Detsched.body =
          (fun () ->
            let tasks =
              List.init 4 (fun _ ->
                  Process.spawn (fun () ->
                      for _ = 1 to 3 do
                        if Mutex.try_lock_for m ~timeout_ns:200_000L then begin
                          Detrt.relax ();
                          Mutex.unlock m
                        end
                        else Detrt.relax ()
                      done))
            in
            List.iter Process.join tasks;
            if Mutex.try_lock m then begin
              Mutex.unlock m;
              free := true
            end);
        check =
          (fun () ->
            if !free then Ok ()
            else Error "mutex left locked after the storm") })

let storm_condition =
  Sync_detsched.Detsched.scenario ~name:"storm-condition-timed"
    ~descr:"3 waiters poll a flag with timed waits; one setter"
    (fun () ->
      let m = Mutex.create () in
      let c = Condition.create () in
      let flag = ref false in
      let woke = Atomic.make 0 in
      { Sync_detsched.Detsched.body =
          (fun () ->
            let waiters =
              List.init 3 (fun _ ->
                  Process.spawn (fun () ->
                      Mutex.lock m;
                      while not !flag do
                        ignore
                          (Condition.wait_for c m
                             ~deadline:(Deadline.after_ns 100_000L))
                      done;
                      Atomic.incr woke;
                      Mutex.unlock m))
            in
            let setter =
              Process.spawn (fun () ->
                  Detrt.relax ();
                  Mutex.lock m;
                  flag := true;
                  Condition.broadcast c;
                  Mutex.unlock m)
            in
            List.iter Process.join (setter :: waiters));
        check =
          (fun () ->
            if Atomic.get woke = 3 then Ok ()
            else
              Error
                (Printf.sprintf "%d of 3 waiters woke" (Atomic.get woke))) })

(* ------------------------------------------------------------------ *)

let bb_solutions : (string * (module Bb_intf.S)) list =
  [ ("semaphore", (module Bb_sem)); ("monitor", (module Bb_mon));
    ("serializer", (module Bb_ser)); ("pathexpr", (module Bb_path));
    ("csp", (module Bb_csp)); ("ccr", (module Bb_ccr)) ]

let rw_solutions : (string * (module Rw_intf.S)) list =
  [ ("semaphore", (module Rw_sem.Readers_prio_baton));
    ("monitor", (module Rw_mon.Readers_prio));
    ("serializer", (module Rw_ser.Readers_prio));
    ("pathexpr", (module Rw_path.Fig2));
    ("csp", (module Rw_csp.Readers_prio));
    ("ccr", (module Rw_ccr.Readers_prio)) ]

let fcfs_solutions : (string * (module Fcfs_intf.S)) list =
  [ ("semaphore", (module Fcfs_sem)); ("monitor", (module Fcfs_mon));
    ("serializer", (module Fcfs_ser)); ("pathexpr", (module Fcfs_path));
    ("csp", (module Fcfs_csp)); ("ccr", (module Fcfs_ccr)) ]

(* CSP's server would run as a virtual task like any other process (a
   spawn inside a deterministic run is always [`Det]), but the storms
   keep to the five mechanisms they were sized for; CSP's cancellation
   behaviour is covered by the abort matrix above. *)
let det_storm_solutions : (string * (module Bb_intf.S)) list =
  [ ("semaphore", (module Bb_sem)); ("monitor", (module Bb_mon));
    ("serializer", (module Bb_ser)); ("pathexpr", (module Bb_path));
    ("ccr", (module Bb_ccr)) ]

(* Random-schedule seeds per storm scenario: seeds 1..8. *)
let storm_runs = 8

let run ?(progress = fun (_ : row) -> ()) () =
  let note f x =
    let r = f x in
    progress r;
    r
  in
  let bb = List.map (note bb_aborts) bb_solutions in
  let evc = note evc_row "bounded-buffer" in
  let rw = List.map (note rw_aborts) rw_solutions in
  let fcfs = List.map (note fcfs_aborts) fcfs_solutions in
  let storms =
    List.map
      (note (fun (mech, (module B : Bb_intf.S)) ->
           det_row ~mechanism:mech ~problem:"bounded-buffer" ~runs:storm_runs
             (bb_storm_scenario (module B) ~plan_seed:7)))
      det_storm_solutions
  in
  let platform =
    List.map
      (note (fun f -> f ()))
      [ dfs_storm_row;
        (fun () ->
          det_row ~mechanism:"platform" ~problem:"semaphore" ~runs:storm_runs
            storm_semaphore);
        (fun () ->
          det_row ~mechanism:"platform" ~problem:"mutex" ~runs:storm_runs
            storm_mutex);
        (fun () ->
          det_row ~mechanism:"platform" ~problem:"condition" ~runs:storm_runs
            storm_condition) ]
  in
  bb @ (evc :: rw) @ fcfs @ storms @ platform

let all_recovered rows =
  List.for_all (fun r -> r.recovered = r.runs) rows

let progress_line r =
  Printf.sprintf "  [%s/%s %s] %d/%d  %s" r.mechanism r.problem r.scenario
    r.recovered r.runs r.detail

(* A row that did not recover every run is failed, with its first
   counterexample as the reason; a row with no runs is excluded. *)
let to_json rows =
  let open Sync_metrics in
  Bench_doc.document ~experiment:"E19"
    ~description:
      "robustness: fault plans and cancellation storms per mechanism x \
       problem; runs survived out of runs attempted"
    (List.map
       (fun r ->
         Bench_doc.row
           ~status:
             (if r.runs = 0 then
                Bench_doc.Unsupported { feature = "aborts"; reason = r.detail }
              else if r.recovered = r.runs then Bench_doc.Supported
              else Bench_doc.Failed r.detail)
           [ ("mechanism", Emit.Str r.mechanism); ("problem", Emit.Str r.problem);
             ("scenario", Emit.Str r.scenario); ("policy", Emit.Str r.policy) ]
           [ ("runs", float_of_int r.runs);
             ("recovered", float_of_int r.recovered) ])
       rows)
