(** Workload driver and checker for the alarm clock.

    The driver registers a batch of sleepers at virtual time 0 (staggered
    with settle delays so registration completes before the first tick),
    then advances the clock one tick at a time. After every tick it waits
    for exactly the sleepers whose deadlines have passed and verifies no
    other sleeper woke early — an exact, deterministic conformance check
    of both constraints (wake no earlier than the deadline; deadline
    order respected tick by tick). Each sleep is also recorded as a trace
    interval ([Enter] before [wakeme], [Exit] on return) and the trace is
    checked for well-formedness. *)

open Sync_platform

let run_exact (module S : Alarm_intf.S) ?(durations = [ 3; 1; 4; 1; 5; 9; 2 ])
    ?settle () =
  let settle =
    match settle with
    | Some s -> s
    | None -> Testwait.settle_s ~default:0.01 ()
  in
  let trace = Trace.create () in
  let t = S.create () in
  let n = List.length durations in
  let done_ = Array.make n false in
  let done_lock = Mutex.create () in
  let is_done i =
    Mutex.lock done_lock;
    let d = done_.(i) in
    Mutex.unlock done_lock;
    d
  in
  let sleepers =
    List.mapi
      (fun i dur ->
        let p =
          Process.spawn ~backend:`Thread (fun () ->
              Trace.record trace ~pid:i ~op:"sleep" ~phase:Trace.Request
                ~arg:dur ();
              Trace.record trace ~pid:i ~op:"sleep" ~phase:Trace.Enter ~arg:dur
                ();
              S.wakeme t ~pid:i dur;
              Trace.record trace ~pid:i ~op:"sleep" ~phase:Trace.Exit ~arg:dur
                ();
              Mutex.lock done_lock;
              done_.(i) <- true;
              Mutex.unlock done_lock)
        in
        Thread.delay settle;
        p)
      durations
  in
  let horizon = List.fold_left max 0 durations in
  let result = ref (Ok ()) in
  (try
     for tick_no = 1 to horizon do
       S.tick t;
       List.iteri
         (fun i dur ->
           if dur <= tick_no then
             Testwait.until
               (Printf.sprintf "sleeper %d due at %d (tick %d)" i dur tick_no)
               (fun () -> is_done i))
         durations;
       List.iteri
         (fun i dur ->
           if dur > tick_no && is_done i && Result.is_ok !result then
             result :=
               Error
                 (Printf.sprintf
                    "sleeper %d (deadline %d) woke early at tick %d" i dur
                    tick_no))
         durations
     done
   with Failure msg -> result := Error msg);
  (* After a failure some sleepers may still be parked with deadlines
     past the last tick — a sleeper that registered only after the first
     tick (a loaded box outran the settle delay) shifted its deadline
     later. Keep ticking until every sleeper has returned, so the join
     below reports the failure instead of blocking forever. *)
  let drain_deadline = Int64.add (Clock.now_ns ()) 10_000_000_000L in
  while
    (not (List.for_all is_done (List.init n Fun.id)))
    && Clock.now_ns () < drain_deadline
  do
    S.tick t;
    Thread.delay 0.001
  done;
  List.iter Process.join sleepers;
  S.stop t;
  match !result with
  | Error _ as e -> e
  | Ok () -> Ivl.check_wellformed (Trace.events trace)

let verify ?durations (module S : Alarm_intf.S) =
  match run_exact (module S) ?durations () with
  | r -> r
  | exception e -> Error ("exception: " ^ Printexc.to_string e)

(* A sleeper asking for zero ticks must return without any tick. *)
let verify_zero (module S : Alarm_intf.S) =
  let t = S.create () in
  let woke = ref false in
  let p =
    Process.spawn ~backend:`Thread (fun () ->
        S.wakeme t ~pid:0 0;
        woke := true)
  in
  match Testwait.until ~timeout:3.0 "zero-duration wake" (fun () -> !woke) with
  | () ->
    Process.join p;
    S.stop t;
    Ok ()
  | exception Failure msg ->
    S.stop t;
    Error msg
