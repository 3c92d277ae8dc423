(* The micro axis: the costs neither the bench_suite ladder nor another
   axis prices. Everything the ladder times (mechanism enter/exit,
   bounded-buffer put+get, the platform mutex and semaphore, trace
   spans, DPOR throughput) is left to it; EXPERIMENTS.md lists where
   each micro-benchmark row lives. *)

open Sync_metrics
open Sync_problems
module P = Sync_platform
module Tier = Sync_prims.Tier

(* Calibrate, then take the median: double the batch size until one
   batch runs for the target time (10 ms full, 0.2 ms quick), time that
   batch 11 times (3 quick), and return the median time per call, in
   ns. *)
let ns_per_op ~full f =
  let target_ns = if full then 10_000_000 else 200_000 in
  let samples = if full then 11 else 3 in
  let batch n =
    let t0 = P.Clock.now_ns () in
    for _ = 1 to n do
      f ()
    done;
    Int64.to_int (P.Clock.elapsed_ns t0)
  in
  let rec calibrate n =
    if n >= 1 lsl 30 || batch n >= target_ns then n else calibrate (2 * n)
  in
  let n = calibrate 1 in
  let per_call =
    List.sort compare
      (List.init samples (fun _ -> float_of_int (batch n) /. float_of_int n))
  in
  List.nth per_call (samples / 2)

let row ?(tier = `Default) ?status section case metrics =
  Bench_doc.row ?status
    [ ("section", Emit.Str section); ("case", Emit.Str case);
      ("tier", Emit.Str (Tier.name tier)) ]
    metrics

(* A timed case builds its state on [tier] and returns the operation;
   [around] wraps the timing (to install a fault plan). *)
let timed ?(tier = `Default) ?(around = fun f -> f ()) section case make ~full =
  let op = Tier.with_tier tier make in
  row ~tier section case [ ("ns_per_op", around (fun () -> ns_per_op ~full op)) ]

let ring_bb (module B : Bb_intf.S) () =
  let ring = Sync_resources.Ring.create ~work:0 8 in
  let t =
    B.create ~capacity:8
      ~put:(fun ~pid:_ v -> Sync_resources.Ring.put ring v)
      ~get:(fun ~pid:_ -> Sync_resources.Ring.get ring)
  in
  fun () ->
    B.put t ~pid:0 1;
    ignore (B.get t ~pid:0)

let null_read ~pid:_ = 0

let null_write ~pid:_ = ()

let read (module S : Rw_intf.S) () =
  let t = S.create ~read:null_read ~write:null_write in
  fun () -> ignore (S.read t ~pid:0)

let path ?engine spec op () =
  let pe = Sync_pathexpr.Pathexpr.of_string ?engine spec in
  fun () -> Sync_pathexpr.Pathexpr.run pe op ignore

let timed_cases =
  let never =
    P.Fault.plan
      [ ("semaphore.pre-wait", P.Fault.Never); ("waitq.pre-wait", P.Fault.Never) ]
  in
  [ timed "E7" "monitor-mesa" (fun () ->
        let m = Sync_monitor.Monitor.create ~discipline:`Mesa () in
        fun () -> Sync_monitor.Monitor.with_monitor m ignore);
    timed "E7" "eventcount-ticket+await+advance" (fun () ->
        let seq = P.Eventcount.Sequencer.create () in
        let done_ = P.Eventcount.Eventcount.create () in
        fun () ->
          let t = P.Eventcount.Sequencer.ticket seq in
          P.Eventcount.Eventcount.await done_ t;
          P.Eventcount.Eventcount.advance done_);
    timed "E8a" "bb-put+get/csp" (ring_bb (module Bb_csp));
    timed "E8a" "bb-put+get/eventcount" (ring_bb (module Bb_evc));
    timed "E10" "monitor-readers-prio-read" (read (module Rw_mon.Readers_prio));
    timed "E10" "monitor-two-stage-fcfs-read" (read (module Rw_mon.Fcfs));
    timed "E10" "serializer-single-queue-fcfs-read" (read (module Rw_ser.Fcfs));
    timed "E12" "exclusive-op/gate-engine"
      (path ~engine:`Gate "path use end" "use");
    timed "E12" "reader-burst-op/semaphore-engine"
      (path "path { read } , write end" "read");
    timed "E19a" "bb-sem-pair/never-firing-plan"
      ~around:(fun f -> P.Fault.with_plan never f)
      (ring_bb (module Bb_sem));
    timed "E19a" "semaphore-acquire_for+v" (fun () ->
        let sem = P.Semaphore.Counting.create 1 in
        fun () ->
          ignore (P.Semaphore.Counting.acquire_for sem ~timeout_ns:1_000_000_000L);
          P.Semaphore.Counting.v sem);
    timed "E19a" "mutex-try_lock_for+unlock" (fun () ->
        let m = P.Mutex.create () in
        fun () ->
          ignore (P.Mutex.try_lock_for m ~timeout_ns:1_000_000_000L);
          P.Mutex.unlock m);
    timed ~tier:`Fast "E22" "weak-semaphore-p+v" (fun () ->
        let sem = P.Semaphore.Counting.create ~fairness:`Weak 1 in
        fun () ->
          P.Semaphore.Counting.p sem;
          P.Semaphore.Counting.v sem);
    timed "E22" "ring-put+get" (fun () ->
        let ring = Sync_resources.Ring.create ~work:0 8 in
        fun () ->
          Sync_resources.Ring.put ring 1;
          ignore (Sync_resources.Ring.get ring));
    timed ~tier:`Fast "E22" "ring-put+get" (fun () ->
        let ring = Sync_resources.Fastring.create ~work:0 8 in
        fun () ->
          Sync_resources.Fastring.put ring 1;
          ignore (Sync_resources.Fastring.get ring)) ]

let wall f =
  let t0 = P.Clock.now_ns () in
  let x = f () in
  (x, Int64.to_float (P.Clock.elapsed_ns t0) /. 1e9)

(* E9: 4 reader threads and 1 writer thread over a store whose
   operations do a little work, per readers-writers variant. *)
let rw_throughput (module S : Rw_intf.S) ~full =
  let reads = if full then 2000 else 200 and writes = if full then 100 else 10 in
  let store = Sync_resources.Store.create ~work:10 () in
  let t =
    S.create
      ~read:(fun ~pid:_ -> Sync_resources.Store.read store)
      ~write:(fun ~pid:_ -> Sync_resources.Store.write store)
  in
  let (), seconds =
    wall (fun () ->
        P.Process.run_all ~backend:`Thread
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
  row "E9" (S.mechanism ^ " " ^ S.meta.Sync_taxonomy.Meta.variant)
    [ ("ops_per_s", float_of_int (reads + writes) /. seconds) ]

let rw_variants : (module Rw_intf.S) list =
  [ (module Rw_sem.Readers_prio); (module Rw_sem.Readers_prio_baton);
    (module Rw_mon.Readers_prio); (module Rw_mon.Fcfs);
    (module Rw_ser.Readers_prio); (module Rw_ser.Fcfs); (module Rw_path.Fig1);
    (module Rw_path.Fig2); (module Rw_path.Plain); (module Rw_csp.Readers_prio);
    (module Rw_csp.Fcfs); (module Rw_ccr.Readers_prio); (module Rw_ccr.Fcfs) ]

(* E19b: the abort workload under the robustness matrix's mixed
   probabilistic plan, 2 producers and 2 consumers; the post-fault
   invariants decide the status. *)
let abort_throughput (module B : Bb_intf.S) ~full =
  let items = if full then 2000 else 200 in
  let mixed = Robustness.mixed_plan ~body_sites:[ "bb.put.body"; "bb.get.body" ] in
  let r, seconds =
    wall (fun () ->
        P.Fault.with_plan mixed (fun () ->
            Bb_harness.run_abort (module B) ~capacity:8 ~producers:2
              ~consumers:2 ~items_per_producer:(items / 2) ()))
  in
  row "E19b" B.mechanism
    ~status:
      (match Bb_harness.check_abort ~producers:2 r with
      | Ok () -> Bench_doc.Supported
      | Error m -> Bench_doc.Failed m)
    [ ("items_per_s", float_of_int items /. seconds);
      ("aborted_puts", float_of_int r.Bb_harness.aborted_puts);
      ("aborted_gets", float_of_int r.Bb_harness.aborted_gets) ]

let abort_variants : (module Bb_intf.S) list =
  [ (module Bb_sem); (module Bb_mon); (module Bb_ser); (module Bb_path);
    (module Bb_ccr) ]

(* The weak-semaphore half of the fairness ablation: a waiter parks on
   an empty semaphore, V releases it, and a barger spinning on try_p
   may take the unit first. Weak semantics permit it; how often it
   happens is up to the platform's scheduler. A round counts once
   however often the barger re-takes the unit it hands back. *)
let weak_barges ~full =
  let rounds = if full then 200 else 20 in
  let sem = P.Semaphore.Counting.create ~fairness:`Weak 0 in
  let stole = Atomic.make false in
  let stop = Atomic.make false in
  let barger =
    P.Process.spawn ~backend:`Thread (fun () ->
        while not (Atomic.get stop) do
          if P.Semaphore.Counting.try_p sem then begin
            Atomic.set stole true;
            P.Semaphore.Counting.v sem
          end;
          Thread.yield ()
        done)
  in
  let barged = ref 0 in
  for _ = 1 to rounds do
    let waiter =
      P.Process.spawn ~backend:`Thread (fun () -> P.Semaphore.Counting.p sem)
    in
    while P.Semaphore.Counting.waiters sem = 0 do
      Thread.yield ()
    done;
    P.Semaphore.Counting.v sem;
    P.Process.join waiter;
    if Atomic.exchange stole false then incr barged
  done;
  Atomic.set stop true;
  P.Process.join barger;
  row "E-ablation" "weak-semaphore-barges"
    [ ("barged_rounds", float_of_int !barged); ("rounds", float_of_int rounds) ]

let run ~full ~progress =
  List.map
    (fun case ->
      let r = case ~full in
      progress r;
      r)
    (timed_cases
    @ List.map rw_throughput rw_variants
    @ List.map abort_throughput abort_variants
    @ [ weak_barges ])

let to_json ~full rows =
  Bench_doc.document ~experiment:"E7-E22"
    ~description:
      "micro-benchmarks no other harness prices: single-thread ns per call \
       (calibrated batch, median of batches), small readers-writers and \
       abort-recovery throughput runs, the weak-semaphore barge count"
    ~params:[ ("full", Emit.Bool full) ]
    rows
