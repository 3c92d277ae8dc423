(* Evaluating YOUR mechanism with Bloom's methodology.

   The library's evaluation machinery is ordinary code: implement a
   solution module, attach metadata, and run the same checkers the
   registry uses. This example evaluates two home-made readers-writers
   "mechanisms":

   - [Big_lock]: a single mutex around everything. Safe — but the
     reader-overlap scenario exposes that it cannot express the
     exclusion constraint's concurrency half (readers serialized).
   - [Broken_rwlock]: a hand-rolled reader/writer lock with a classic
     check-then-act race. Exhaustive exploration of the deterministic
     runtime's schedules (DPOR) finds the interleaving where a writer
     overlaps a reader, and prints it.

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

(* A racy reader/writer lock on the platform Mutex/Condition: the reader
   checks the writer flag, lets go of the mutex, and only then counts
   itself in — check-then-act. *)
module Broken_rwlock : Rw_intf.S = struct
  open Sync_platform

  type t = {
    m : Mutex.t;
    changed : Condition.t;
    mutable readers : int;
    mutable writing : bool;
    res_read : pid:int -> int;
    res_write : pid:int -> unit;
  }

  let mechanism = "broken-rwlock"

  let policy = Rw_intf.No_priority

  let create ~read ~write =
    { m = Mutex.create (); changed = Condition.create (); readers = 0;
      writing = false; res_read = read; res_write = write }

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let read t ~pid =
    locked t (fun () ->
        while t.writing do
          Condition.wait t.changed t.m
        done);
    (* BUG: a writer can take the lock between the check above and the
       count below, see no readers, and write while this one reads. *)
    locked t (fun () -> t.readers <- t.readers + 1);
    Fun.protect
      ~finally:(fun () ->
        locked t (fun () ->
            t.readers <- t.readers - 1;
            Condition.broadcast t.changed))
      (fun () -> t.res_read ~pid)

  let write t ~pid =
    locked t (fun () ->
        while t.writing || t.readers > 0 do
          Condition.wait t.changed t.m
        done;
        t.writing <- true);
    Fun.protect
      ~finally:(fun () ->
        locked t (fun () ->
            t.writing <- false;
            Condition.broadcast t.changed))
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

(* Exclusion is judged over every schedule class of a small instance
   (1 reader, 1 writer, one operation each) on the deterministic
   runtime, so a race cannot hide behind a lucky interleaving. *)
let evaluate name (m : (module Rw_intf.S)) =
  Printf.printf "\n== evaluating %s ==\n%!" name;
  let module D = Sync_detsched.Detsched in
  let scenario =
    Sync_detsched.Scenarios.rw_excl name m ~readers:1 ~writers:1 ~ops:1
  in
  let r = D.explore_dpor ~max_schedules:100_000 scenario in
  (match r.failures with
  | [] ->
    Printf.printf "exclusion (DPOR):       pass (%d schedule classes%s)\n%!"
      r.explored
      (if r.complete then ", complete" else ", budget reached")
  | (schedule, msg) :: _ ->
    Printf.printf
      "exclusion (DPOR):       FAIL in %d of %d schedule classes (%s)\n\
      \                        failing schedule: %s\n%!"
      r.failed r.explored msg (D.Schedule.to_string schedule));
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
     lock is caught by exploring its schedules, which names the one that\n\
     breaks exclusion."
