(* Evaluating YOUR mechanism with Bloom's methodology.

   The library's evaluation machinery is ordinary code: implement a
   solution module, attach metadata, and run the same checkers the
   registry uses. This example evaluates two home-made readers-writers
   "mechanisms":

   - [Big_lock]: a single mutex around everything. Safe — but the
     reader-overlap scenario exposes that it cannot express the
     exclusion constraint's concurrency half (readers serialized).
   - [Broken_rwlock]: a hand-rolled reader/writer lock with a classic
     check-then-act race. The self-checking store catches the overlap.

     dune exec examples/evaluate_your_own.exe
*)

open Sync_problems

(* A "mechanism" that serializes everything. It locks the platform
   mutex, as every mechanism should: the staged scenarios run on the
   deterministic runtime, which can only schedule around primitives it
   knows. *)
module Big_lock : Rw_intf.S = struct
  open Sync_platform

  type t = {
    lock : Mutex.t;
    res_read : pid:int -> int;
    res_write : pid:int -> unit;
  }

  let mechanism = "big-lock"

  let policy = Rw_intf.No_priority

  let create ~read ~write =
    { lock = Mutex.create (); res_read = read; res_write = write }

  let read t ~pid =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () -> t.res_read ~pid)

  let write t ~pid =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () -> t.res_write ~pid)

  let stop _ = ()

  let meta =
    Sync_taxonomy.Meta.make ~mechanism:"big-lock" ~problem:"readers-writers"
      ~variant:"none"
      ~fragments:[ ("rw-exclusion", [ "lock"; "unlock" ]); ("rw-priority", []) ]
      ~info_access:[]
      ~separation:Sync_taxonomy.Meta.Separated ()
end

(* A racy reader/writer lock: the reader counts itself in WITHOUT holding
   the mutex while checking the writer flag — check-then-act. *)
module Broken_rwlock : Rw_intf.S = struct
  type t = {
    readers : int Atomic.t;
    writing : bool Atomic.t;
    res_read : pid:int -> int;
    res_write : pid:int -> unit;
  }

  let mechanism = "broken-rwlock"

  let policy = Rw_intf.No_priority

  let create ~read ~write =
    { readers = Atomic.make 0; writing = Atomic.make false;
      res_read = read; res_write = write }

  let read t ~pid =
    (* BUG: a writer can set [writing] between this check and the
       increment becoming visible to it. *)
    while Atomic.get t.writing do
      Thread.yield ()
    done;
    (* The sleep stands in for the preemption a loaded multicore machine
       provides for free: the check above is stale by the next line. *)
    Thread.delay 0.0005;
    Atomic.incr t.readers;
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.readers)
      (fun () -> t.res_read ~pid)

  let write t ~pid =
    while not (Atomic.compare_and_set t.writing false true) do
      Thread.yield ()
    done;
    (* BUG: checks readers once instead of excluding new arrivals. *)
    while Atomic.get t.readers > 0 do
      Thread.yield ()
    done;
    Fun.protect
      ~finally:(fun () -> Atomic.set t.writing false)
      (fun () -> t.res_write ~pid)

  let stop _ = ()

  let meta =
    Sync_taxonomy.Meta.make ~mechanism:"broken-rwlock"
      ~problem:"readers-writers" ~variant:"none"
      ~fragments:
        [ ("rw-exclusion", [ "writing"; "flag"; "readers"; "count" ]);
          ("rw-priority", []) ]
      ~info_access:[]
      ~separation:Sync_taxonomy.Meta.Blended ()
end

let evaluate name (m : (module Rw_intf.S)) =
  Printf.printf "\n== evaluating %s ==\n%!" name;
  (* A race needs the right interleaving: give the stress several rounds
     to find one before declaring the mechanism clean. *)
  let rec stress round =
    if round > 8 then print_endline "exclusion stress:       pass (8 rounds)"
    else
      match
        Rw_harness.verify_exclusion ~readers:4 ~writers:4 ~reads_each:50
          ~writes_each:50 m
      with
      | Ok () -> stress (round + 1)
      | Error msg ->
        Printf.printf "exclusion stress:       FAIL in round %d (%s)\n%!"
          round msg
  in
  stress 1;
  match Rw_harness.scenario_reader_overlap m with
  | Ok () -> print_endline "reader concurrency:     pass"
  | Error msg -> Printf.printf "reader concurrency:     FAIL (%s)\n%!" msg

let () =
  print_endline
    "Bloom's method, applied to two homemade readers-writers mechanisms.\n\
     A correct mechanism passes both checks (compare: monitor below).";
  evaluate "monitor readers-priority (reference)" (module Rw_mon.Readers_prio);
  evaluate "big-lock (safe but cannot express reader concurrency)"
    (module Big_lock);
  evaluate "broken-rwlock (check-then-act race)" (module Broken_rwlock);
  print_endline
    "\nThe big lock is caught by the reader-overlap scenario (it cannot\n\
     express the concurrency half of the exclusion constraint); the racy\n\
     lock is caught by the self-checking resource under stress."
