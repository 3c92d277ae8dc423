(* Shared helpers for the concurrency test suites. *)

open Sync_platform

let ns_of_s s = Int64.of_float (s *. 1e9)

(* Poll [f] until it returns true; fail the test after [timeout] seconds. *)
let eventually ?(timeout = 5.0) msg f =
  let deadline = Int64.add (Clock.now_ns ()) (ns_of_s timeout) in
  let rec loop () =
    if f () then ()
    else if Clock.now_ns () >= deadline then
      Alcotest.failf "timed out waiting for: %s" msg
    else begin
      Thread.yield ();
      loop ()
    end
  in
  loop ()

(* Check that [f] stays false for [for_] seconds (a bounded "never"). *)
let never ?(for_ = 0.15) msg f =
  let deadline = Int64.add (Clock.now_ns ()) (ns_of_s for_) in
  let rec loop () =
    if f () then Alcotest.failf "unexpectedly became true: %s" msg
    else if Clock.now_ns () < deadline then begin
      Thread.yield ();
      loop ()
    end
  in
  loop ()

(* A mutex-protected event journal for ordering assertions. *)
module Journal = struct
  type t = { lock : Mutex.t; mutable entries : string list }

  let create () = { lock = Mutex.create (); entries = [] }

  let add t e =
    Mutex.lock t.lock;
    t.entries <- e :: t.entries;
    Mutex.unlock t.lock

  let entries t =
    Mutex.lock t.lock;
    let es = List.rev t.entries in
    Mutex.unlock t.lock;
    es
end

(* Deterministic property runs: the qcheck suites derive their random
   state from one pinned seed, so a failure seen in CI reproduces
   locally. QCHECK_SEED=<int> overrides the pin (e.g. for soak runs);
   every property failure prints the seed that replays it. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (try int_of_string (String.trim s) with _ -> 0xB100F)
  | None -> 0xB100F

let qcheck_case test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test
  in
  let run' () =
    try run ()
    with e ->
      Printf.printf
        "  property failed under QCHECK_SEED=%d (set this env var to replay)\n\
         %!"
        qcheck_seed;
      raise e
  in
  (name, speed, run')

(* Run [f] at spin budget [n] (Mutex.set_spin_rounds), then restore it. *)
let with_spin_rounds n f =
  let saved = Mutex.spin_rounds () in
  Mutex.set_spin_rounds n;
  Fun.protect ~finally:(fun () -> Mutex.set_spin_rounds saved) f

(* Spawn each thunk as a thread-backed process and join them all. *)
let run_all fs = Process.run_all ~backend:`Thread fs

let spawn f = Process.spawn ~backend:`Thread f

(* Max number of simultaneously-active bodies, for concurrency assertions. *)
module Gauge = struct
  type t = { current : int Atomic.t; max : int Atomic.t }

  let create () = { current = Atomic.make 0; max = Atomic.make 0 }

  let enter t =
    let c = 1 + Atomic.fetch_and_add t.current 1 in
    let rec bump () =
      let m = Atomic.get t.max in
      if c > m && not (Atomic.compare_and_set t.max m c) then bump ()
    in
    bump ()

  let leave t = ignore (Atomic.fetch_and_add t.current (-1))

  let max t = Atomic.get t.max

  let current t = Atomic.get t.current
end

(* Thread-safe unbounded FIFO with blocking and non-blocking removal:
   how test threads hand results back to the checking thread. *)
module Tsqueue = struct
  type 'a t = { mutex : Mutex.t; nonempty : Condition.t; queue : 'a Queue.t }

  let create () =
    { mutex = Mutex.create (); nonempty = Condition.create ();
      queue = Queue.create () }

  let push t x =
    Mutex.lock t.mutex;
    Queue.push x t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  (* Blocks until an element is available. *)
  let pop t =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue do
      Condition.wait t.nonempty t.mutex
    done;
    let x = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    x

  let try_pop t =
    Mutex.lock t.mutex;
    let x = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
    Mutex.unlock t.mutex;
    x

  (* Polls up to [timeout_ns]; [None] on timeout. *)
  let pop_timeout t ~timeout_ns =
    let deadline = Int64.add (Clock.now_ns ()) timeout_ns in
    let rec loop () =
      match try_pop t with
      | Some x -> Some x
      | None ->
        if Clock.now_ns () >= deadline then None
        else begin
          Thread.yield ();
          loop ()
        end
    in
    loop ()

  let length t =
    Mutex.lock t.mutex;
    let n = Queue.length t.queue in
    Mutex.unlock t.mutex;
    n

  (* Remove and return everything currently queued, oldest first. *)
  let drain t =
    Mutex.lock t.mutex;
    let xs = List.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    Mutex.unlock t.mutex;
    xs
end
