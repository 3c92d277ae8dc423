open Sync_platform

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)

let test_prng_deterministic () =
  let a = Prng.make 42L and b = Prng.make 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_bounds () =
  let r = Prng.make 7L in
  for _ = 1 to 1000 do
    let x = Prng.int r 10 in
    check_bool "in range" true (x >= 0 && x < 10)
  done

let test_prng_split_independent () =
  let a = Prng.make 1L in
  let b = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 20 (fun _ -> Prng.next_int64 b) in
  check_bool "streams differ" true (xs <> ys)

let test_prng_shuffle_permutation () =
  let r = Prng.make 3L in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)

let test_heap_orders () =
  let h = Heap.create ~cmp:compare () in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] (Heap.to_list h);
  check_int "length" 5 (Heap.length h)

let test_heap_fifo_ties () =
  (* Equal keys must pop in insertion order. *)
  let h = Heap.create ~cmp:(fun (k, _) (k', _) -> compare k k') () in
  List.iter (Heap.push h) [ (1, "a"); (0, "b"); (1, "c"); (0, "d") ];
  let order = List.map snd (Heap.to_list h) in
  Alcotest.(check (list string)) "fifo ties" [ "b"; "d"; "a"; "c" ] order

let test_heap_pop_empty () =
  let h = Heap.create ~cmp:compare () in
  check_bool "empty" true (Heap.pop h = None);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty")
    (fun () -> ignore (Heap.pop_exn h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap sorts like List.sort"
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~cmp:compare () in
      List.iter (Heap.push h) xs;
      Heap.to_list h = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Waitq                                                              *)

let test_waitq_fifo () =
  let lock = Mutex.create () in
  let q : int Waitq.t = Waitq.create () in
  let j = Testutil.Journal.create () in
  let waiter i () =
    Mutex.lock lock;
    Waitq.wait q ~lock i;
    Mutex.unlock lock;
    Testutil.Journal.add j (string_of_int i)
  in
  let spawn_ordered i =
    let t = Testutil.spawn (waiter i) in
    Testutil.eventually "waiter parked" (fun () ->
        Mutex.lock lock;
        let n = Waitq.length q in
        Mutex.unlock lock;
        n = i + 1);
    t
  in
  let ts = List.init 3 spawn_ordered in
  for i = 1 to 3 do
    Mutex.lock lock;
    ignore (Waitq.wake_first q);
    Mutex.unlock lock;
    (* Wait for the woken thread to journal before waking the next, so the
       journal reflects wake order. *)
    Testutil.eventually "woken thread journaled" (fun () ->
        List.length (Testutil.Journal.entries j) = i)
  done;
  List.iter Sync_platform.Process.join ts;
  Alcotest.(check (list string)) "fifo wake order" [ "0"; "1"; "2" ]
    (Testutil.Journal.entries j)

let test_waitq_wake_min () =
  let lock = Mutex.create () in
  let q : int Waitq.t = Waitq.create () in
  let j = Testutil.Journal.create () in
  let waiter rank () =
    Mutex.lock lock;
    Waitq.wait q ~lock rank;
    Mutex.unlock lock;
    Testutil.Journal.add j (string_of_int rank)
  in
  let ranks = [ 5; 2; 9 ] in
  let ts =
    List.mapi
      (fun i rank ->
        let t = Testutil.spawn (waiter rank) in
        Testutil.eventually "parked" (fun () ->
            Mutex.lock lock;
            let n = Waitq.length q in
            Mutex.unlock lock;
            n = i + 1);
        t)
      ranks
  in
  Mutex.lock lock;
  Alcotest.(check (option int)) "min tag" (Some 2) (Waitq.min_tag q ~cmp:compare);
  Mutex.unlock lock;
  for i = 1 to 3 do
    Mutex.lock lock;
    ignore (Waitq.wake_min q ~cmp:compare);
    Mutex.unlock lock;
    Testutil.eventually "woken thread journaled" (fun () ->
        List.length (Testutil.Journal.entries j) = i)
  done;
  List.iter Sync_platform.Process.join ts;
  Alcotest.(check (list string)) "priority wake order" [ "2"; "5"; "9" ]
    (Testutil.Journal.entries j)

let test_waitq_wake_matching () =
  let lock = Mutex.create () in
  let q : string Waitq.t = Waitq.create () in
  let j = Testutil.Journal.create () in
  let waiter tag () =
    Mutex.lock lock;
    Waitq.wait q ~lock tag;
    Mutex.unlock lock;
    Testutil.Journal.add j tag
  in
  let ts =
    List.mapi
      (fun i tag ->
        let t = Testutil.spawn (waiter tag) in
        Testutil.eventually "parked" (fun () ->
            Mutex.lock lock;
            let n = Waitq.length q in
            Mutex.unlock lock;
            n = i + 1);
        t)
      [ "w"; "r1"; "r2" ]
  in
  let woken = ref 0 in
  let wake f =
    Mutex.lock lock;
    ignore (Waitq.wake_first_matching q ~f);
    Mutex.unlock lock;
    incr woken;
    let expected = !woken in
    Testutil.eventually "woken thread journaled" (fun () ->
        List.length (Testutil.Journal.entries j) = expected)
  in
  wake (fun tag -> tag.[0] = 'r');
  wake (fun tag -> tag.[0] = 'r');
  wake (fun _ -> true);
  List.iter Sync_platform.Process.join ts;
  Alcotest.(check (list string)) "matching order" [ "r1"; "r2"; "w" ]
    (Testutil.Journal.entries j)

(* ------------------------------------------------------------------ *)
(* Semaphores                                                         *)

let test_sem_counting_basic () =
  let s = Semaphore.Counting.create 2 in
  Semaphore.Counting.p s;
  Semaphore.Counting.p s;
  check_int "drained" 0 (Semaphore.Counting.value s);
  check_bool "try_p fails" false (Semaphore.Counting.try_p s);
  Semaphore.Counting.v s;
  check_bool "try_p succeeds" true (Semaphore.Counting.try_p s)

let test_sem_strong_fifo () =
  let s = Semaphore.Counting.create ~fairness:`Strong 0 in
  let j = Testutil.Journal.create () in
  let ts =
    List.init 4 (fun i ->
        let t =
          Testutil.spawn (fun () ->
              Semaphore.Counting.p s;
              Testutil.Journal.add j (string_of_int i))
        in
        Testutil.eventually "parked" (fun () ->
            Semaphore.Counting.waiters s = i + 1);
        t)
  in
  for i = 1 to 4 do
    Semaphore.Counting.v s;
    Testutil.eventually "granted thread journaled" (fun () ->
        List.length (Testutil.Journal.entries j) = i)
  done;
  List.iter Sync_platform.Process.join ts;
  Alcotest.(check (list string)) "fifo grants" [ "0"; "1"; "2"; "3" ]
    (Testutil.Journal.entries j)

let test_sem_mutual_exclusion_stress () =
  let s = Semaphore.Counting.create 1 in
  let g = Testutil.Gauge.create () in
  let worker () =
    for _ = 1 to 200 do
      Semaphore.Counting.p s;
      Testutil.Gauge.enter g;
      Thread.yield ();
      Testutil.Gauge.leave g;
      Semaphore.Counting.v s
    done
  in
  Testutil.run_all (List.init 4 (fun _ -> worker));
  check_int "never two inside" 1 (Testutil.Gauge.max g)

let test_sem_binary () =
  let s = Semaphore.Binary.create true in
  Semaphore.Binary.p s;
  check_int "closed" 0 (Semaphore.Binary.value s);
  Semaphore.Binary.v s;
  check_int "open" 1 (Semaphore.Binary.value s);
  Alcotest.check_raises "double v"
    (Invalid_argument "Semaphore.Binary.v: already open") (fun () ->
      Semaphore.Binary.v s)

(* ------------------------------------------------------------------ *)
(* Tsqueue, Latch, Barrier, Clock                                     *)

let test_tsqueue_fifo () =
  let q = Testutil.Tsqueue.create () in
  List.iter (Testutil.Tsqueue.push q) [ 1; 2; 3 ];
  check_int "len" 3 (Testutil.Tsqueue.length q);
  check_int "pop" 1 (Testutil.Tsqueue.pop q);
  Alcotest.(check (list int)) "drain" [ 2; 3 ] (Testutil.Tsqueue.drain q);
  check_bool "empty" true (Testutil.Tsqueue.try_pop q = None)

let test_tsqueue_blocking_pop () =
  let q = Testutil.Tsqueue.create () in
  let got = Atomic.make 0 in
  let t = Testutil.spawn (fun () -> Atomic.set got (Testutil.Tsqueue.pop q)) in
  Testutil.never "pop returns early" (fun () -> Atomic.get got <> 0);
  Testutil.Tsqueue.push q 42;
  Sync_platform.Process.join t;
  check_int "received" 42 (Atomic.get got)

let test_tsqueue_pop_timeout () =
  let q : int Testutil.Tsqueue.t = Testutil.Tsqueue.create () in
  check_bool "times out" true
    (Testutil.Tsqueue.pop_timeout q ~timeout_ns:10_000_000L = None)

let test_latch () =
  let l = Latch.create 3 in
  let done_ = Atomic.make false in
  let t =
    Testutil.spawn (fun () ->
        Latch.wait l;
        Atomic.set done_ true)
  in
  Latch.arrive l;
  Latch.arrive l;
  Testutil.never "latch released early" (fun () -> Atomic.get done_);
  Latch.arrive l;
  Sync_platform.Process.join t;
  check_bool "released" true (Atomic.get done_);
  Alcotest.check_raises "extra arrive"
    (Invalid_argument "Latch.arrive: already at zero") (fun () ->
      Latch.arrive l)

let test_latch_wait_timeout () =
  let l = Latch.create 1 in
  check_bool "times out" false (Latch.wait_timeout l ~timeout_ns:20_000_000L);
  Latch.arrive l;
  check_bool "succeeds" true (Latch.wait_timeout l ~timeout_ns:20_000_000L)

let test_barrier_aligns () =
  let b = Latch.Barrier.create 3 in
  let counter = Atomic.make 0 in
  let seen_at_barrier = Testutil.Tsqueue.create () in
  let worker () =
    ignore (Atomic.fetch_and_add counter 1);
    Latch.Barrier.await b;
    Testutil.Tsqueue.push seen_at_barrier (Atomic.get counter);
    Latch.Barrier.await b
  in
  Testutil.run_all (List.init 3 (fun _ -> worker));
  List.iter
    (fun seen -> check_int "all arrived before any passed" 3 seen)
    (Testutil.Tsqueue.drain seen_at_barrier)

let test_virtual_clock () =
  let c = Clock.Virtual.create () in
  check_int "starts at 0" 0 (Clock.Virtual.now c);
  let woke = Atomic.make false in
  let t =
    Testutil.spawn (fun () ->
        Clock.Virtual.sleep_until c 5;
        Atomic.set woke true)
  in
  Testutil.eventually "sleeper registered" (fun () ->
      Clock.Virtual.sleepers c = 1);
  Clock.Virtual.advance c 4;
  Testutil.never "woke too early" (fun () -> Atomic.get woke);
  Clock.Virtual.advance c 1;
  Sync_platform.Process.join t;
  check_bool "woke" true (Atomic.get woke);
  check_int "now" 5 (Clock.Virtual.now c)

(* ------------------------------------------------------------------ *)
(* Process, Trace, Backoff                                            *)

let test_process_propagates_exception () =
  let t = Testutil.spawn (fun () -> failwith "boom") in
  Alcotest.check_raises "join re-raises" (Failure "boom") (fun () ->
      Sync_platform.Process.join t)

let test_process_domain_backend () =
  let hit = Atomic.make false in
  let t = Process.spawn ~backend:`Domain (fun () -> Atomic.set hit true) in
  Process.join t;
  check_bool "domain ran" true (Atomic.get hit)

let test_run_all_first_error () =
  Alcotest.check_raises "first error wins" (Failure "first") (fun () ->
      Testutil.run_all
        [ (fun () -> failwith "first"); (fun () -> failwith "second") ])

let test_trace_records_order () =
  let tr = Trace.create () in
  Trace.record tr ~pid:1 ~op:"read" ~phase:Trace.Request ();
  Trace.record tr ~pid:1 ~op:"read" ~phase:Trace.Enter ();
  Trace.record tr ~pid:1 ~op:"read" ~phase:Trace.Exit ~arg:7 ();
  let es = Trace.events tr in
  check_int "length" 3 (Trace.length tr);
  check_int "seqs dense" 0 (List.nth es 0).Trace.seq;
  check_int "arg kept" 7 (List.nth es 2).Trace.arg;
  Trace.clear tr;
  check_int "cleared" 0 (Trace.length tr)

let test_trace_concurrent_recording () =
  let tr = Trace.create () in
  let worker pid () =
    for _ = 1 to 100 do
      Trace.record tr ~pid ~op:"x" ~phase:Trace.Mark ()
    done
  in
  Testutil.run_all (List.init 4 (fun pid -> worker pid));
  let es = Trace.events tr in
  check_int "all recorded" 400 (List.length es);
  List.iteri (fun i e -> check_int "dense seq" i e.Trace.seq) es

let test_backoff_progresses () =
  let b = Backoff.create () in
  for _ = 1 to 20 do
    Backoff.once b
  done;
  Backoff.reset b;
  Backoff.once b

let test_backoff_bounds () =
  let rejects label f =
    match f () with
    | (_ : Backoff.t) -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument _ -> ()
  in
  rejects "min_wait 0" (fun () -> Backoff.create ~min_wait:0 ());
  rejects "min_wait negative" (fun () -> Backoff.create ~min_wait:(-2) ());
  rejects "min_wait not a power of two" (fun () ->
      Backoff.create ~min_wait:3 ());
  rejects "max_wait not a power of two" (fun () ->
      Backoff.create ~max_wait:24 ());
  rejects "max_wait < min_wait" (fun () ->
      Backoff.create ~min_wait:16 ~max_wait:8 ());
  (* Boundary acceptances: 1 = 2^0, and min = max. *)
  Backoff.once (Backoff.create ~min_wait:1 ~max_wait:1 ());
  Backoff.once (Backoff.create ~min_wait:8 ~max_wait:8 ())

(* ------------------------------------------------------------------ *)
(* Clock.Virtual edge cases                                           *)

let test_virtual_clock_edges () =
  let c = Clock.Virtual.create ~start:10 () in
  check_int "starts where asked" 10 (Clock.Virtual.now c);
  (* A deadline already reached never blocks. *)
  Clock.Virtual.sleep_until c 10;
  Clock.Virtual.sleep_until c 3;
  Clock.Virtual.advance c 0;
  check_int "advance 0 is a no-op" 10 (Clock.Virtual.now c);
  (* Several sleepers on the same deadline all wake on one advance. *)
  let woke = Atomic.make 0 in
  let sleepers =
    List.init 3 (fun _ ->
        Testutil.spawn (fun () ->
            Clock.Virtual.sleep_until c 12;
            Atomic.incr woke))
  in
  Testutil.eventually "all parked" (fun () -> Clock.Virtual.sleepers c = 3);
  Clock.Virtual.advance c 1;
  Testutil.never "none woke at 11" (fun () -> Atomic.get woke > 0);
  Clock.Virtual.advance c 1;
  List.iter Sync_platform.Process.join sleepers;
  check_int "all woke at 12" 3 (Atomic.get woke);
  check_int "no sleepers left" 0 (Clock.Virtual.sleepers c)

(* ------------------------------------------------------------------ *)
(* Timed/cancellable waits                                            *)

let test_timed_waits () =
  (* Semaphore: immediate success, then a timeout on an empty one. *)
  let sem = Semaphore.Counting.create 1 in
  check_bool "token available" true
    (Semaphore.Counting.acquire_for sem ~timeout_ns:1_000_000L);
  check_bool "empty times out" false
    (Semaphore.Counting.acquire_for sem ~timeout_ns:2_000_000L);
  Semaphore.Counting.v sem;
  (* Mutex: a contended try_lock_for expires; a free one succeeds. *)
  let m = Mutex.create () in
  let release = Atomic.make false in
  let held = Atomic.make false in
  let holder =
    Testutil.spawn (fun () ->
        Mutex.lock m;
        Atomic.set held true;
        while not (Atomic.get release) do
          Thread.yield ()
        done;
        Mutex.unlock m)
  in
  Testutil.eventually "holder has it" (fun () -> Atomic.get held);
  check_bool "contended lock times out" false
    (Mutex.try_lock_for m ~timeout_ns:2_000_000L);
  Atomic.set release true;
  Sync_platform.Process.join holder;
  check_bool "free lock succeeds" true
    (Mutex.try_lock_for m ~timeout_ns:1_000_000L);
  Mutex.unlock m;
  (* Condition: no signaller, so the predicate loop runs out of
     deadline — with the mutex reacquired (the unlock must be legal). *)
  let c = Condition.create () in
  let dl = Deadline.after_ns 2_000_000L in
  Mutex.lock m;
  while Condition.wait_for c m ~deadline:dl do
    ()
  done;
  check_bool "wait gave up only at the deadline" true (Deadline.expired dl);
  Mutex.unlock m;
  check_bool "past deadline expired" true
    (Deadline.expired (Deadline.after_ns (-1L)));
  check_bool "future deadline pending" false
    (Deadline.expired (Deadline.after_ns 1_000_000_000L))

(* ------------------------------------------------------------------ *)
(* Fault plans and masking                                            *)

let test_fault_triggers_deterministic () =
  let plan =
    Fault.plan [ ("a", Fault.Nth 2); ("b", Fault.Every 3) ]
  in
  let round () =
    let fires site =
      match Fault.site site with
      | () -> false
      | exception Fault.Injected _ -> true
    in
    let a = List.init 4 (fun _ -> fires "a") in
    let b = List.init 6 (fun _ -> fires "b") in
    (a, b)
  in
  let a, b = Fault.with_plan plan round in
  Alcotest.(check (list bool)) "Nth 2 fires exactly the 2nd hit"
    [ false; true; false; false ] a;
  Alcotest.(check (list bool)) "Every 3 fires hits 3 and 6"
    [ false; false; true; false; false; true ] b;
  (* with_plan resets the counters: the same closure replays. *)
  let a', b' = Fault.with_plan plan round in
  Alcotest.(check (list bool)) "Nth replays" a a';
  Alcotest.(check (list bool)) "Every replays" b b'

let test_fault_prob_deterministic () =
  let plan = Fault.plan ~seed:9 [ ("p", Fault.Prob 0.5) ] in
  let round () =
    List.init 64 (fun _ ->
        match Fault.site "p" with
        | () -> false
        | exception Fault.Injected _ -> true)
  in
  let one = Fault.with_plan plan round in
  let two = Fault.with_plan plan round in
  Alcotest.(check (list bool)) "seeded Prob stream replays" one two;
  check_bool "stream is mixed" true
    (List.exists Fun.id one && List.exists (fun x -> not x) one)

let test_fault_mask () =
  check_bool "not masked without a plan" false (Fault.masked ());
  let plan = Fault.plan [ ("m", Fault.Nth 1) ] in
  Fault.with_plan plan (fun () ->
      (* A masked hit neither fires nor consumes the Nth counter... *)
      Fault.mask (fun () ->
          check_bool "masked inside" true (Fault.masked ());
          Fault.mask (fun () ->
              check_bool "mask nests" true (Fault.masked ()));
          check_bool "still masked after inner exit" true (Fault.masked ());
          Fault.site "m");
      check_bool "unmasked outside" false (Fault.masked ());
      (* ... so the first unmasked hit is still hit #1 and fires. *)
      match Fault.site "m" with
      | () -> Alcotest.fail "masked hit consumed the counter"
      | exception Fault.Injected _ -> ())

(* With no plan installed [mask f] is [f ()]: same result, same
   exception, no depth left behind, no allocation. *)
let mask_one () = 1

let test_fault_mask_no_plan () =
  check_bool "no plan installed" false (Fault.active ());
  Alcotest.(check int) "returns f's value" 42 (Fault.mask (fun () -> 42));
  (match Fault.mask (fun () -> raise Exit) with
  | () -> Alcotest.fail "exception swallowed"
  | exception Exit -> ());
  Fault.mask (fun () ->
      Fault.mask (fun () -> check_bool "never masked" false (Fault.masked ())));
  let plan = Fault.plan [ ("m", Fault.Nth 1) ] in
  Fault.with_plan plan (fun () ->
      check_bool "no depth left behind" false (Fault.masked ());
      match Fault.site "m" with
      | () -> Alcotest.fail "first hit under a fresh plan did not fire"
      | exception Fault.Injected _ -> ());
  for _ = 1 to 100 do
    ignore (Fault.mask mask_one)
  done;
  let before = Gc.minor_words () in
  let sum = ref 0 in
  for _ = 1 to 10_000 do
    sum := !sum + Fault.mask mask_one
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check int) "every call ran f" 10_000 !sum;
  Alcotest.(check (float 0.0)) "10k masks allocate nothing" 0.0 allocated

(* ------------------------------------------------------------------ *)
(* Deadlock watchdog (wait-for graph) unit                             *)

let test_deadlock_find_cycle () =
  Deadlock.enable ();
  Fun.protect ~finally:Deadlock.disable (fun () ->
      let ra = Deadlock.register ~kind:"mutex" ~name:"res-a" () in
      let rb = Deadlock.register ~kind:"mutex" ~name:"res-b" () in
      let stop = Atomic.make false in
      let actor name holds wants =
        Testutil.spawn (fun () ->
            Deadlock.name_self name;
            Deadlock.acquired holds;
            Deadlock.blocked wants;
            while not (Atomic.get stop) do
              Thread.yield ()
            done;
            Deadlock.unblocked ();
            Deadlock.released holds)
      in
      let t1 = actor "proc-a" ra rb in
      let t2 = actor "proc-b" rb ra in
      Testutil.eventually "cycle detected" (fun () ->
          Deadlock.find_cycle () <> None);
      (match Deadlock.find_cycle () with
      | None -> Alcotest.fail "cycle vanished"
      | Some c ->
        let s = Deadlock.cycle_to_string c in
        let mem affix = Astring.String.is_infix ~affix s in
        check_bool "names proc-a" true (mem "proc-a");
        check_bool "names proc-b" true (mem "proc-b");
        check_bool "names res-a" true (mem "res-a");
        check_bool "names res-b" true (mem "res-b"));
      (* The daemon sees it too. *)
      let seen = Atomic.make false in
      let cancel =
        Deadlock.watch ~period_s:0.01
          ~on_cycle:(fun _ -> Atomic.set seen true)
          ()
      in
      Testutil.eventually "watchdog reports" (fun () -> Atomic.get seen);
      cancel ();
      Atomic.set stop true;
      Sync_platform.Process.join t1;
      Sync_platform.Process.join t2;
      Deadlock.reset ();
      check_bool "reset clears the graph" true (Deadlock.find_cycle () = None))

(* ------------------------------------------------------------------ *)
(* Tiers: one creation-time selector                                  *)

module Tier = Sync_prims.Tier

(* Which representation a mutex was built on, as a row label. *)
let built_on (m : Mutex.t) =
  match m.Mutex.impl with
  | Mutex.Det _ -> "det"
  | Mutex.Sys _ -> "default"
  | Mutex.Cell c -> Tier.name c.Tier.tier
  | Mutex.Swap _ -> "swap"

let check_built msg want m = Alcotest.(check string) msg want (built_on m)

(* The old scope names are aliases of [Tier.with_tier]: each sets the
   one tier value for its extent and restores it on any exit. *)
let test_fastpath_flag () =
  let tier () = Tier.name (Tier.current ()) in
  Alcotest.(check string) "default at rest" "default" (tier ());
  List.iter
    (fun (want, scope) ->
      Alcotest.(check string) want want (scope tier);
      Alcotest.(check string) (want ^ " restored") "default" (tier ());
      (match scope (fun () -> raise Exit) with
      | exception Exit -> ()
      | _ -> Alcotest.fail "expected Exit");
      Alcotest.(check string) (want ^ " restored after raise") "default"
        (tier ()))
    [ ("fast", fun f -> Fastpath.with_enabled f);
      ("cas", fun f -> Sync_prims.Prims.with_class Sync_prims.Prims.CAS f);
      ("clh", fun f -> Sync_prims.Queuelock.(with_kind CLH f));
      ("adaptive", fun f -> Mutex.with_swappable f) ]

let test_fast_mutex_tier_selection () =
  check_built "default tier outside a scope" "default" (Mutex.create ());
  check_built "fast tier in the scope" "fast"
    (Fastpath.with_enabled (fun () -> Mutex.create ()));
  let sem_tier fairness =
    Fastpath.with_enabled (fun () ->
        Semaphore.Counting.create ~fairness 1)
  in
  (* Only weak semaphores may take the fetch-and-add tier: strong ones
     promise arrival order, which the barging fast path cannot give. *)
  check_int "strong semaphore stays queued (waiters observable)" 0
    (Semaphore.Counting.waiters (sem_tier `Strong));
  let w = sem_tier `Weak in
  Semaphore.Counting.p w;
  check_int "weak fast semaphore accounts value" 0
    (Semaphore.Counting.value w);
  Semaphore.Counting.v w;
  check_int "weak fast semaphore v restores" 1 (Semaphore.Counting.value w)

(* Scope semantics (see tier.mli): innermost wins, a raise restores,
   the cell is process-wide, and [`Prim Native] is the default tier. *)
let test_scope_innermost () =
  check_built "no scope" "default" (Mutex.create ());
  Tier.with_tier (`Queue Tier.MCS) (fun () ->
      check_built "queue alone" "mcs" (Mutex.create ());
      Tier.with_tier (`Prim Tier.CAS) (fun () ->
          check_built "inner class wins" "cas" (Mutex.create ());
          Tier.with_tier `Fast (fun () ->
              check_built "innermost fast wins" "fast" (Mutex.create ())));
      Tier.with_tier `Default (fun () ->
          check_built "inner default wins" "default" (Mutex.create ()));
      check_built "outer restored" "mcs" (Mutex.create ()));
  Tier.with_tier (`Prim Tier.CAS) (fun () ->
      Tier.with_tier (`Queue Tier.Ticket) (fun () ->
          check_built "no ranking: queue inside class" "ticket"
            (Mutex.create ())));
  check_built "selection is creation-scoped" "default" (Mutex.create ())

let test_scope_raise () =
  Tier.with_tier `Fast (fun () ->
      (match Tier.with_tier (`Queue Tier.CLH) (fun () -> raise Exit) with
      | exception Exit -> ()
      | () -> Alcotest.fail "expected Exit");
      check_built "outer scope restored" "fast" (Mutex.create ()));
  (match Tier.with_tier (`Prim Tier.LLSC) (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected Failure");
  check_built "rest state restored" "default" (Mutex.create ())

let test_scope_cross_thread () =
  let m = ref None in
  Tier.with_tier (`Queue Tier.CLH) (fun () ->
      Process.join (Testutil.spawn (fun () -> m := Some (Mutex.create ()))));
  match !m with
  | Some m -> check_built "other thread inherits the open scope" "clh" m
  | None -> Alcotest.fail "thread created no mutex"

let test_scope_native () =
  check_built "native builds Sys" "default"
    (Tier.with_tier (`Prim Tier.Native) (fun () -> Mutex.create ()));
  let s =
    Tier.with_tier (`Prim Tier.Native) (fun () ->
        Semaphore.Counting.create ~fairness:`Strong 1)
  in
  Semaphore.Counting.p s;
  check_int "native semaphore is the default construction" 0
    (Semaphore.Counting.value s);
  Semaphore.Counting.v s

(* Value conservation of the fast weak semaphore: k units, never more
   than k concurrent holders, and every P is matched by its V. *)
let test_fast_weak_sem_conservation () =
  let k = 3 in
  let s =
    Fastpath.with_enabled (fun () ->
        Semaphore.Counting.create ~fairness:`Weak k)
  in
  let g = Testutil.Gauge.create () in
  let iters = 1_000 in
  let worker () =
    for _ = 1 to iters do
      Semaphore.Counting.p s;
      Testutil.Gauge.enter g;
      Testutil.Gauge.leave g;
      Semaphore.Counting.v s
    done
  in
  Process.run_all ~backend:`Thread [ worker; worker; worker; worker ];
  check_bool "at most k concurrent holders" true (Testutil.Gauge.max g <= k);
  check_int "all units returned" k (Semaphore.Counting.value s);
  check_int "no waiters left" 0 (Semaphore.Counting.waiters s)

(* try_p on the fast tier: must honor the value without parking. *)
let test_fast_sem_try_p_and_timeout () =
  let s =
    Fastpath.with_enabled (fun () ->
        Semaphore.Counting.create ~fairness:`Weak 1)
  in
  check_bool "try_p wins the unit" true (Semaphore.Counting.try_p s);
  check_bool "try_p on empty fails" false (Semaphore.Counting.try_p s);
  check_bool "acquire_for on empty times out" false
    (Semaphore.Counting.acquire_for s ~timeout_ns:2_000_000L);
  Semaphore.Counting.v s;
  check_bool "acquire_for succeeds when a unit exists" true
    (Semaphore.Counting.acquire_for s ~timeout_ns:2_000_000L);
  Semaphore.Counting.v s

(* ------------------------------------------------------------------ *)
(* Tier x operation table. Every row builds its primitives inside one
   tier scope; every column is one platform operation's contract. *)

type row = { row : string; scope : 'a. (unit -> 'a) -> 'a }

let rows =
  List.map
    (fun t -> { row = Tier.name t; scope = (fun f -> Tier.with_tier t f) })
    [ `Default; `Fast; `Prim Tier.RW; `Prim Tier.CAS; `Prim Tier.FAA;
      `Prim Tier.LLSC; `Queue Tier.MCS; `Queue Tier.CLH; `Queue Tier.Ticket ]
  @ [ { row = "swap"; scope = (fun f -> Mutex.with_swappable f) } ]

let mutex_of r =
  let m = r.scope (fun () -> Mutex.create ()) in
  check_built "built on the row's tier" r.row m;
  m

(* Four threads; odd ones mix in try_lock attempts. *)
let col_storm r () =
  let m = mutex_of r in
  let g = Testutil.Gauge.create () in
  let count = ref 0 in
  let rounds = 200 in
  let worker i () =
    for k = 1 to rounds do
      if i land 1 = 1 && k land 3 = 0 then
        while not (Mutex.try_lock m) do
          Thread.yield ()
        done
      else Mutex.lock m;
      Testutil.Gauge.enter g;
      incr count;
      Testutil.Gauge.leave g;
      Mutex.unlock m
    done
  in
  Testutil.run_all (List.init 4 worker);
  check_int "never two holders" 1 (Testutil.Gauge.max g);
  check_int "no lost increments" (4 * rounds) !count

let try_from_other_thread m =
  let got = ref None in
  Process.join
    (Testutil.spawn (fun () ->
         let ok = Mutex.try_lock m in
         if ok then Mutex.unlock m;
         got := Some ok));
  !got

let col_try_lock r () =
  let m = mutex_of r in
  check_bool "free lock takes try_lock" true (Mutex.try_lock m);
  Alcotest.(check (option bool)) "held lock declines try_lock" (Some false)
    (try_from_other_thread m);
  Mutex.unlock m;
  Alcotest.(check (option bool)) "released lock takes try_lock" (Some true)
    (try_from_other_thread m)

(* Timed attempts expire while the lock is held and leave nothing
   behind: after the holder releases, a full storm of plain
   acquisitions must run to completion (a stale queue node would stall
   the FIFO chain, a lost wakeup), and a timed attempt on the free lock
   succeeds. *)
let col_abandonment r () =
  let m = mutex_of r in
  Mutex.lock m;
  let failures = Atomic.make 0 in
  let attempts =
    List.init 3 (fun _ ->
        Testutil.spawn (fun () ->
            if not (Mutex.try_lock_for m ~timeout_ns:(Testutil.ns_of_s 0.02))
            then Atomic.incr failures))
  in
  List.iter Process.join attempts;
  check_int "timed attempts expired while held" 3 (Atomic.get failures);
  Mutex.unlock m;
  let count = ref 0 in
  let iters = 200 in
  let worker () =
    for _ = 1 to iters do
      Mutex.lock m;
      incr count;
      Mutex.unlock m
    done
  in
  Testutil.run_all [ worker; worker; worker; worker ];
  check_int "no lost wakeups after abandonment" (4 * iters) !count;
  check_bool "free lock takes try_lock_for" true
    (Mutex.try_lock_for m ~timeout_ns:(Testutil.ns_of_s 0.5));
  Mutex.unlock m

(* Mesa contract: spurious wakeups allowed, lost ones not. Broadcast
   releases every parked waiter; a turn-passing ping-pong through
   [signal] hangs if any wakeup is lost. *)
let col_condition r () =
  let m = mutex_of r in
  let c = Condition.create () in
  let ready = ref 0 in
  let woke = Atomic.make 0 in
  let n = 3 in
  let waiters =
    List.init n (fun _ ->
        Testutil.spawn (fun () ->
            Mutex.lock m;
            incr ready;
            while !ready <= n do
              Condition.wait c m
            done;
            Atomic.incr woke;
            Mutex.unlock m))
  in
  Testutil.eventually "all parked" (fun () ->
      Mutex.lock m;
      let all = !ready = n in
      Mutex.unlock m;
      all);
  Mutex.lock m;
  ready := n + 1;
  Condition.broadcast c;
  Mutex.unlock m;
  Testutil.eventually "broadcast woke everyone" (fun () -> Atomic.get woke = n);
  List.iter Process.join waiters;
  let turn = ref 0 and rounds = 100 and finished = Atomic.make 0 in
  let player me () =
    for _ = 1 to rounds do
      Mutex.lock m;
      while !turn <> me do
        Condition.wait c m
      done;
      turn := 1 - me;
      Condition.signal c;
      Mutex.unlock m
    done;
    Atomic.incr finished
  in
  let players = [ Testutil.spawn (player 0); Testutil.spawn (player 1) ] in
  Testutil.eventually "every turn passed" (fun () -> Atomic.get finished = 2);
  List.iter Process.join players

let col_wait_for r () =
  let m = mutex_of r in
  let c = Condition.create () in
  Mutex.lock m;
  let deadline = Deadline.after_ns (Testutil.ns_of_s 0.005) in
  let polls = ref 0 in
  while Condition.wait_for c m ~deadline do
    incr polls
  done;
  check_bool "returned only after the deadline" true
    (Deadline.expired deadline);
  Alcotest.(check (option bool)) "lock held again on expiry" (Some false)
    (try_from_other_thread m);
  Mutex.unlock m

(* Inside a deterministic run the tier is inert: every primitive comes
   out deterministic and the journal replays exactly. *)
let col_detrt_inert r () =
  let exec () =
    let log = ref [] in
    ignore
      (Detrt.run ~choose:(fun _ -> 0) (fun () ->
           r.scope (fun () ->
               let m = Mutex.create () in
               check_built "det mutex" "det" m;
               let s = Semaphore.Counting.create ~fairness:`Weak 1 in
               let ps =
                 List.init 3 (fun i ->
                     Process.spawn (fun () ->
                         Mutex.lock m;
                         Semaphore.Counting.p s;
                         log := Printf.sprintf "t%d" i :: !log;
                         Semaphore.Counting.v s;
                         Mutex.unlock m))
               in
               List.iter Process.join ps)));
    List.rev !log
  in
  let a = exec () in
  check_int "every task ran" 3 (List.length a);
  Alcotest.(check (list string)) "identical journals" a (exec ())

module Probe = Sync_trace.Probe

(* Run [f] with probes recording; its events for [site], sorted by start
   time and then kind, so a zero-wait Acquire precedes the Hold that
   starts at the same instant. *)
let traced_events ?(site = "mutex") f =
  Probe.reset ();
  Probe.enable ();
  Fun.protect
    ~finally:(fun () ->
      Probe.disable ();
      Probe.reset ())
    (fun () ->
      f ();
      Probe.disable ();
      Probe.snapshot ()
      |> List.filter (fun (e : Probe.event) -> String.equal e.Probe.site site)
      |> List.stable_sort (fun (a : Probe.event) (b : Probe.event) ->
             compare (a.Probe.t0, a.Probe.kind) (b.Probe.t0, b.Probe.kind)))

(* One clock read per span boundary: an uncontended acquire is a
   zero-wait Acquire whose end is the Hold's start; a contended one
   waits (dur > 0); a try_lock is one zero-wait Acquire. *)
let col_probe_spans r () =
  let m = mutex_of r in
  (match traced_events (fun () -> Mutex.lock m; Mutex.unlock m) with
  | [ a; h ] ->
    check_bool "acquire then hold" true
      (a.Probe.kind = Probe.Acquire && h.Probe.kind = Probe.Hold);
    check_int "uncontended acquire waits 0 ns" 0 a.Probe.dur;
    check_int "hold starts where the acquire ends" (a.Probe.t0 + a.Probe.dur)
      h.Probe.t0
  | evs -> Alcotest.failf "uncontended: %d mutex events" (List.length evs));
  let waiter = Atomic.make (-1) in
  let evs =
    traced_events (fun () ->
        Mutex.lock m;
        let t =
          Testutil.spawn (fun () ->
              Atomic.set waiter (Thread.id (Thread.self ()));
              Mutex.lock m;
              Mutex.unlock m)
        in
        Testutil.eventually "waiter started" (fun () -> Atomic.get waiter >= 0);
        Thread.delay 0.02;
        Mutex.unlock m;
        Process.join t)
  in
  (match
     List.filter
       (fun (e : Probe.event) ->
         e.Probe.actor = Atomic.get waiter && e.Probe.kind = Probe.Acquire)
       evs
   with
  | [ a ] -> check_bool "contended acquire waits" true (a.Probe.dur > 0)
  | l -> Alcotest.failf "contended: %d waiter acquires" (List.length l));
  match
    traced_events (fun () ->
        check_bool "try_lock on a free lock" true (Mutex.try_lock m);
        Mutex.unlock m)
  with
  | [ a; _ ] ->
    check_bool "try_lock acquire" true (a.Probe.kind = Probe.Acquire);
    check_int "try_lock acquire waits 0 ns" 0 a.Probe.dur
  | evs -> Alcotest.failf "try_lock: %d mutex events" (List.length evs)

(* Det mutexes keep the two-read traced path (no extra try, so no extra
   scheduling point): a contended run under a fixed schedule records
   this sequence, per virtual task in start order. *)
let test_det_probe_sequence () =
  let evs =
    traced_events ~site:"det" (fun () ->
        ignore
          (Detrt.run ~choose:(fun _ -> 0) (fun () ->
               let m = Mutex.create ~name:"det" () in
               let ps =
                 List.init 2 (fun _ ->
                     Process.spawn (fun () ->
                         Mutex.lock m;
                         Detrt.yield ();
                         Mutex.unlock m))
               in
               List.iter Process.join ps;
               if Mutex.try_lock m then Mutex.unlock m)))
  in
  let by_actor a =
    List.filter_map
      (fun (e : Probe.event) ->
        if e.Probe.actor = a then
          Some
            (Printf.sprintf "%s%s" (Probe.kind_to_string e.Probe.kind)
               (if e.Probe.dur = 0 then " 0" else ""))
        else None)
      evs
  in
  Alcotest.(check (list (list string)))
    "per-task sequences"
    [ [ "acquire"; "hold" ]; [ "acquire"; "hold" ]; [ "acquire 0"; "hold" ] ]
    (List.map by_actor [ -2; -3; -1 ])

let table =
  let column suite name f =
    ( suite,
      List.map
        (fun r -> Alcotest.test_case (name r.row) `Quick (f r))
        rows )
  in
  [ column "locks" (fun t -> t ^ " exclusion storm") col_storm;
    column "try-lock" (fun t -> t ^ " held/free") col_try_lock;
    column "abandonment" Fun.id col_abandonment;
    column "condition" (fun t -> t ^ " wait/signal") col_condition;
    column "wait-for" (fun t -> t ^ " expiry") col_wait_for;
    column "detrt-inert" Fun.id col_detrt_inert;
    column "probe-spans" (fun t -> t ^ " acquire/hold") col_probe_spans ]

let test_waitq_wake_n () =
  let q = Waitq.create () in
  let m = Mutex.create () in
  let woke = Atomic.make 0 in
  let n = 3 in
  let waiters =
    List.init n (fun i ->
        Testutil.spawn (fun () ->
            Mutex.lock m;
            Waitq.wait q ~lock:m i;
            Atomic.incr woke;
            Mutex.unlock m))
  in
  Testutil.eventually "three parked" (fun () -> Waitq.length q = n);
  Mutex.lock m;
  check_int "wake_n reports the released count" 2 (Waitq.wake_n q 2);
  Mutex.unlock m;
  Testutil.eventually "exactly two woke" (fun () -> Atomic.get woke = 2);
  Testutil.never "third stays parked" (fun () -> Atomic.get woke > 2);
  Mutex.lock m;
  check_int "wake_all drains the rest" 1 (Waitq.wake_all q);
  Mutex.unlock m;
  List.iter Process.join waiters;
  check_int "all woke in the end" n (Atomic.get woke)

let test_sem_v_n () =
  (* Strong tier: v_n hands units to parked waiters in FIFO order, one
     signal pass, leftovers to the value. *)
  let s = Semaphore.Counting.create 0 in
  let woke = Atomic.make 0 in
  let waiters =
    List.init 3 (fun _ ->
        Testutil.spawn (fun () ->
            Semaphore.Counting.p s;
            Atomic.incr woke))
  in
  Testutil.eventually "three parked" (fun () ->
      Semaphore.Counting.waiters s = 3);
  Semaphore.Counting.v_n s 0;
  check_int "v_n 0 is a no-op" 3 (Semaphore.Counting.waiters s);
  Semaphore.Counting.v_n s 5;
  List.iter Process.join waiters;
  check_int "all three woke" 3 (Atomic.get woke);
  check_int "leftover units banked" 2 (Semaphore.Counting.value s);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Semaphore.Counting.v_n: negative count") (fun () ->
      Semaphore.Counting.v_n s (-1));
  (* Weak tier: one batched post, value goes up by n. *)
  let w = Semaphore.Counting.create ~fairness:`Weak 0 in
  Semaphore.Counting.v_n w 4;
  check_int "weak v_n posts the batch" 4 (Semaphore.Counting.value w)

(* ------------------------------------------------------------------ *)
(* Timed-wait edges: a zero or negative budget (the "already expired"
   deadline the serve tier sends for spent request budgets) must reject
   a contended acquire immediately — and still take a free one. *)

(* An expired budget must resolve in bounded time; generous margin for
   a loaded 1-core box. *)
let bounded name f =
  let t0 = Clock.now_ns () in
  let r = f () in
  let ms =
    Int64.to_int (Int64.div (Int64.sub (Clock.now_ns ()) t0) 1_000_000L)
  in
  if ms > 1_000 then
    Alcotest.failf "%s took %dms on an expired budget" name ms;
  r

let test_deadline_expired_edges () =
  check_bool "0ns is born expired" true (Deadline.expired (Deadline.after_ns 0L));
  check_bool "negative is born expired" true
    (Deadline.expired (Deadline.after_ns (-1L)));
  check_bool "min_int does not wrap into the future" true
    (Deadline.expired (Deadline.after_ns Int64.min_int));
  check_bool "never does not expire" false (Deadline.expired Deadline.never);
  check_bool "a generous deadline is live" false
    (Deadline.expired (Deadline.after_s 60.0))

let test_timed_zero_budget () =
  (* Free primitives still succeed with no budget at all... *)
  let m = Mutex.create () in
  check_bool "free mutex, 0 budget" true
    (bounded "free mutex" (fun () -> Mutex.try_lock_for m ~timeout_ns:0L));
  Mutex.unlock m;
  let s = Semaphore.Counting.create 1 in
  check_bool "available unit, 0 budget" true
    (bounded "avail sem" (fun () ->
         Semaphore.Counting.acquire_for s ~timeout_ns:0L));
  let b = Semaphore.Binary.create true in
  check_bool "open binary, 0 budget" true
    (bounded "open binary" (fun () ->
         Semaphore.Binary.acquire_for b ~timeout_ns:0L));
  (* ...while exhausted ones reject immediately, leaving state intact. *)
  check_bool "empty sem, 0 budget" false
    (bounded "empty sem" (fun () ->
         Semaphore.Counting.acquire_for s ~timeout_ns:0L));
  check_bool "empty sem, negative budget" false
    (bounded "negative sem" (fun () ->
         Semaphore.Counting.acquire_for s ~timeout_ns:(-5L)));
  check_int "failed timed P leaves no value" 0 (Semaphore.Counting.value s);
  check_int "failed timed P leaves no waiter" 0 (Semaphore.Counting.waiters s);
  check_bool "closed binary, 0 budget" false
    (bounded "closed binary" (fun () ->
         Semaphore.Binary.acquire_for b ~timeout_ns:0L));
  (* Held mutex: a zero-budget contender must bounce, not park. *)
  Mutex.lock m;
  let contender = ref None in
  Process.join
    (Testutil.spawn (fun () ->
         contender :=
           Some (bounded "held mutex" (fun () ->
                     Mutex.try_lock_for m ~timeout_ns:0L))));
  Alcotest.(check (option bool)) "held mutex, 0 budget" (Some false) !contender;
  (* Expired condition wait: returns false with the lock still held. *)
  let c = Condition.create () in
  check_bool "expired cond wait" false
    (bounded "cond wait" (fun () ->
         Condition.wait_for c m ~deadline:(Deadline.after_ns 0L)));
  let probe = ref None in
  Process.join
    (Testutil.spawn (fun () -> probe := Some (Mutex.try_lock m)));
  Alcotest.(check (option bool)) "lock survives the expired wait"
    (Some false) !probe;
  (* Expired waitq wait: false, lock held, no residual entry to wake. *)
  let q = Waitq.create () in
  check_bool "expired waitq wait" false
    (bounded "waitq wait" (fun () ->
         Waitq.wait_for q ~lock:m ~deadline:(Deadline.after_ns (-1L)) 0));
  check_int "no residual waiter" 0 (Waitq.length q);
  Mutex.unlock m

(* The same contract must hold on the E22 fast tier, whose timed waits
   are CAS/backoff polls rather than condvar parks. *)
let test_fast_timed_zero_budget () =
  Fastpath.with_enabled (fun () ->
      let m = Mutex.create () in
      check_bool "fast free mutex, 0 budget" true
        (bounded "fast free mutex" (fun () ->
             Mutex.try_lock_for m ~timeout_ns:0L));
      Mutex.unlock m;
      let s = Semaphore.Counting.create 0 in
      check_bool "fast empty sem, 0 budget" false
        (bounded "fast empty sem" (fun () ->
             Semaphore.Counting.acquire_for s ~timeout_ns:0L));
      check_bool "fast empty sem, negative budget" false
        (bounded "fast negative sem" (fun () ->
             Semaphore.Counting.acquire_for s ~timeout_ns:(-5L)));
      check_int "fast sem value untouched" 0 (Semaphore.Counting.value s);
      let w = Semaphore.Counting.create ~fairness:`Weak 0 in
      check_bool "fast weak empty sem, 0 budget" false
        (bounded "fast weak sem" (fun () ->
             Semaphore.Counting.acquire_for w ~timeout_ns:0L)))

(* ------------------------------------------------------------------ *)
(* Waitq.wake_n batching properties (the E24 drain/V-storm substrate):
   wake_n releases exactly [min n waiters], FIFO-oldest first, and the
   overshoot wakes nobody twice. *)

let prop_wake_n_releases_min =
  QCheck.Test.make ~name:"wake_n releases exactly min n waiters" ~count:20
    QCheck.(pair (int_range 0 4) (int_range 0 8))
    (fun (parked, n) ->
      let q = Waitq.create () in
      let m = Mutex.create () in
      let woke = Atomic.make 0 in
      let waiters =
        List.init parked (fun i ->
            Testutil.spawn (fun () ->
                Mutex.lock m;
                Waitq.wait q ~lock:m i;
                Atomic.incr woke;
                Mutex.unlock m))
      in
      Testutil.eventually "all parked" (fun () -> Waitq.length q = parked);
      Mutex.lock m;
      let released = Waitq.wake_n q n in
      Mutex.unlock m;
      let expect = min parked n in
      Testutil.eventually "released count woke" (fun () ->
          Atomic.get woke = expect);
      Testutil.never "nobody extra wakes" (fun () -> Atomic.get woke > expect);
      Mutex.lock m;
      let drained = Waitq.wake_all q in
      Mutex.unlock m;
      List.iter Process.join waiters;
      released = expect
      && drained = parked - expect
      && Atomic.get woke = parked
      && Waitq.length q = 0)

let test_wake_n_empty () =
  let q : int Waitq.t = Waitq.create () in
  check_int "wake_n on an empty queue" 0 (Waitq.wake_n q 5);
  check_int "wake_n 0 on an empty queue" 0 (Waitq.wake_n q 0);
  check_int "wake_all on an empty queue" 0 (Waitq.wake_all q)

(* ------------------------------------------------------------------ *)
(* Batched-post storm on real domains: producers feed consumers with
   v_n bursts through the fast tier; every unit must be consumed
   exactly once (conservation) with nothing left parked. *)

let test_fast_v_n_domain_storm () =
  let s = Fastpath.with_enabled (fun () -> Semaphore.Counting.create 0) in
  let consumers = 3 in
  let per_consumer = 200 in
  let total = consumers * per_consumer in
  let consumed = Atomic.make 0 in
  let jobs =
    List.init consumers (fun _ () ->
        for _ = 1 to per_consumer do
          Semaphore.Counting.p s;
          Atomic.incr consumed
        done)
    @ [ (fun () ->
          (* One producer domain posting jittered batch sizes. *)
          let rng = Prng.make 99L in
          let posted = ref 0 in
          while !posted < total do
            let n = min (total - !posted) (1 + Prng.int rng 16) in
            Semaphore.Counting.v_n s n;
            posted := !posted + n;
            if Prng.int rng 4 = 0 then Thread.yield ()
          done) ]
  in
  Process.run_all ~backend:`Domain jobs;
  check_int "every unit consumed exactly once" total (Atomic.get consumed);
  check_int "no residual value" 0 (Semaphore.Counting.value s);
  check_int "no residual waiters" 0 (Semaphore.Counting.waiters s)

let () =
  Alcotest.run "platform"
    ([ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "split independent" `Quick
            test_prng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick
            test_prng_shuffle_permutation ] );
      ( "heap",
        [ Alcotest.test_case "orders" `Quick test_heap_orders;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
          Testutil.qcheck_case prop_heap_sorts ] );
      ( "waitq",
        [ Alcotest.test_case "fifo" `Quick test_waitq_fifo;
          Alcotest.test_case "wake_min" `Quick test_waitq_wake_min;
          Alcotest.test_case "wake_matching" `Quick test_waitq_wake_matching
        ] );
      ( "semaphore",
        [ Alcotest.test_case "counting basic" `Quick test_sem_counting_basic;
          Alcotest.test_case "strong fifo" `Quick test_sem_strong_fifo;
          Alcotest.test_case "mutual exclusion stress" `Quick
            test_sem_mutual_exclusion_stress;
          Alcotest.test_case "binary" `Quick test_sem_binary ] );
      ( "queues",
        [ Alcotest.test_case "tsqueue fifo" `Quick test_tsqueue_fifo;
          Alcotest.test_case "tsqueue blocking pop" `Quick
            test_tsqueue_blocking_pop;
          Alcotest.test_case "tsqueue pop timeout" `Quick
            test_tsqueue_pop_timeout ] );
      ( "latch",
        [ Alcotest.test_case "latch" `Quick test_latch;
          Alcotest.test_case "wait_timeout" `Quick test_latch_wait_timeout;
          Alcotest.test_case "barrier aligns" `Quick test_barrier_aligns ] );
      ( "clock",
        [ Alcotest.test_case "virtual clock" `Quick test_virtual_clock ] );
      ( "process",
        [ Alcotest.test_case "exception propagates" `Quick
            test_process_propagates_exception;
          Alcotest.test_case "domain backend" `Quick
            test_process_domain_backend;
          Alcotest.test_case "run_all first error" `Quick
            test_run_all_first_error ] );
      ( "trace",
        [ Alcotest.test_case "records in order" `Quick
            test_trace_records_order;
          Alcotest.test_case "concurrent recording" `Quick
            test_trace_concurrent_recording ] );
      ( "backoff",
        [ Alcotest.test_case "progresses" `Quick test_backoff_progresses;
          Alcotest.test_case "bound validation" `Quick test_backoff_bounds ] );
      ( "clock-edges",
        [ Alcotest.test_case "virtual clock edge cases" `Quick
            test_virtual_clock_edges ] );
      ( "timed-waits",
        [ Alcotest.test_case "mutex/semaphore/condition" `Quick
            test_timed_waits ] );
      ( "fault",
        [ Alcotest.test_case "Nth/Every deterministic, with_plan resets"
            `Quick test_fault_triggers_deterministic;
          Alcotest.test_case "seeded Prob replays" `Quick
            test_fault_prob_deterministic;
          Alcotest.test_case "mask suppresses without counting" `Quick
            test_fault_mask;
          Alcotest.test_case "mask without a plan is free" `Quick
            test_fault_mask_no_plan ] );
      ( "deadlock",
        [ Alcotest.test_case "find_cycle names the circular wait" `Quick
            test_deadlock_find_cycle ] );
      ( "fastpath",
        [ Alcotest.test_case "flag scoping" `Quick test_fastpath_flag;
          Alcotest.test_case "tier selection" `Quick
            test_fast_mutex_tier_selection;
          Alcotest.test_case "fast weak semaphore conservation" `Quick
            test_fast_weak_sem_conservation;
          Alcotest.test_case "fast semaphore try_p/timeout" `Quick
            test_fast_sem_try_p_and_timeout;
          Alcotest.test_case "waitq wake_n batches" `Quick test_waitq_wake_n;
          Alcotest.test_case "semaphore v_n batches" `Quick test_sem_v_n ] );
      ( "tier-scope",
        [ Alcotest.test_case "innermost scope wins" `Quick
            test_scope_innermost;
          Alcotest.test_case "restored on raise" `Quick test_scope_raise;
          Alcotest.test_case "other threads inherit the scope" `Quick
            test_scope_cross_thread;
          Alcotest.test_case "prim native builds sys" `Quick
            test_scope_native ] );
      ( "timed-edges",
        [ Alcotest.test_case "deadline expiry edges" `Quick
            test_deadline_expired_edges;
          Alcotest.test_case "zero/negative budgets" `Quick
            test_timed_zero_budget;
          Alcotest.test_case "fast-tier zero budgets" `Quick
            test_fast_timed_zero_budget ] );
      ( "probe-det",
        [ Alcotest.test_case "traced det lock sequence" `Quick
            test_det_probe_sequence ] );
      ( "wake-batching",
        [ Testutil.qcheck_case prop_wake_n_releases_min;
          Alcotest.test_case "wake_n empty edges" `Quick test_wake_n_empty;
          Alcotest.test_case "v_n domain storm" `Quick
            test_fast_v_n_domain_storm ] )
    ]
    @ table)
