(** Workload driver and checker for the FCFS problem.

    Checking grant order against request order from a free-running
    concurrent trace is unsound (recording and queue arrival can be
    reordered by scheduling noise), so the driver builds a deterministic
    queue instead: a distinguished {e holder} occupies the resource
    (its resource body blocks on a latch), the driver then launches the
    contenders one at a time — recording each [Request] itself, in launch
    order, waiting until each is running and then giving it a settle
    delay to park — and finally releases
    the holder. The checker requires the drain order to equal the launch
    order, plus mutual exclusion from both the trace and the resource's
    own overlap check. *)

open Sync_platform

type report = { trace : Trace.event list }

let holder_pid = 999

(* Spawn [f] on a thread and return once it is running, so the settle
   delay after it only has to cover the few steps from there to parking
   in the mechanism, not the thread's start-up, which a loaded machine
   can stretch past any fixed delay. *)
let spawn_started f =
  let started = Latch.create 1 in
  let p =
    Process.spawn ~backend:`Thread (fun () ->
        Latch.arrive started;
        f ())
  in
  Latch.wait started;
  p

let run (module S : Fcfs_intf.S) ?(users = 5) ?(rounds = 3) ?(work = 100)
    ?settle () =
  let settle =
    match settle with
    | Some s -> s
    | None -> Testwait.settle_s ~default:0.01 ()
  in
  let trace = Trace.create () in
  let busy = Atomic.make false in
  let gate = ref (Latch.create 1) in
  let res_use ~pid =
    Trace.record trace ~pid ~op:"use" ~phase:Trace.Enter ();
    if not (Atomic.compare_and_set busy false true) then
      raise (Sync_resources.Busywork.Ill_synchronized "fcfs: overlap");
    if pid = holder_pid then Latch.wait !gate
    else Sync_resources.Busywork.spin work;
    Atomic.set busy false;
    Trace.record trace ~pid ~op:"use" ~phase:Trace.Exit ()
  in
  let t = S.create ~use:res_use in
  Fun.protect
    ~finally:(fun () -> S.stop t)
    (fun () ->
      for _ = 1 to rounds do
        gate := Latch.create 1;
        let holder = spawn_started (fun () -> S.use t ~pid:holder_pid) in
        Thread.delay settle;
        let contenders =
          List.init users (fun pid ->
              Trace.record trace ~pid ~op:"use" ~phase:Trace.Request ();
              let c = spawn_started (fun () -> S.use t ~pid) in
              Thread.delay settle;
              c)
        in
        Latch.arrive !gate;
        Process.join holder;
        List.iter Process.join contenders
      done);
  { trace = Trace.events trace }

(* Deterministic-schedule variant of {!run}: one round, with quiescence
   in place of the settle delays — each contender is fully parked in the
   mechanism's queue before the next is launched, so the request order is
   exact and the drain order depends only on the mechanism. Must be
   called inside a [Detrt.run] body. *)
let det_run (module S : Fcfs_intf.S) ?(users = 4) () =
  let trace = Trace.create () in
  let gate = Latch.create 1 in
  let res_use ~pid =
    Trace.record trace ~pid ~op:"use" ~phase:Trace.Enter ();
    if pid = holder_pid then Latch.wait gate;
    Trace.record trace ~pid ~op:"use" ~phase:Trace.Exit ()
  in
  let t = S.create ~use:res_use in
  Fun.protect
    ~finally:(fun () -> S.stop t)
    (fun () ->
      let holder = Process.spawn (fun () -> S.use t ~pid:holder_pid) in
      Detrt.await_quiescence ();
      let contenders =
        List.init users (fun pid ->
            Trace.record trace ~pid ~op:"use" ~phase:Trace.Request ();
            let c = Process.spawn (fun () -> S.use t ~pid) in
            Detrt.await_quiescence ();
            c)
      in
      Latch.arrive gate;
      Process.join holder;
      List.iter Process.join contenders);
  { trace = Trace.events trace }

(* Abort-injection variant of {!run}: one staged round where the body
   fault site ["fcfs.use.body"] may abort a contender's use (the holder is
   exempt — it anchors the staging), and mechanism-internal sites may
   abort a parked contender out of the queue. An aborted contender simply
   drops out; the drain must still be FIFO over the survivors, exclusive,
   and complete. *)

type abort_report = {
  abort_trace : Trace.event list;
  users : int;
  aborted : int;
  poisoned : bool;
}

let run_abort (module S : Fcfs_intf.S) ?(users = 5) ?settle () =
  let settle =
    match settle with
    | Some s -> s
    | None -> Testwait.settle_s ~default:0.01 ()
  in
  let trace = Trace.create () in
  let busy = Atomic.make false in
  let gate = Latch.create 1 in
  let res_use ~pid =
    if pid <> holder_pid then Fault.site "fcfs.use.body";
    Trace.record trace ~pid ~op:"use" ~phase:Trace.Enter ();
    if not (Atomic.compare_and_set busy false true) then
      raise (Sync_resources.Busywork.Ill_synchronized "fcfs: overlap");
    if pid = holder_pid then Latch.wait gate
    else Sync_resources.Busywork.spin 100;
    Atomic.set busy false;
    Trace.record trace ~pid ~op:"use" ~phase:Trace.Exit ()
  in
  let t = S.create ~use:res_use in
  let aborted = Atomic.make 0 in
  let poisoned = Atomic.make false in
  Fun.protect
    ~finally:(fun () -> try S.stop t with _ -> ())
    (fun () ->
      let holder =
        spawn_started (fun () ->
            try S.use t ~pid:holder_pid
            with Sync_csp.Csp.Poisoned _ -> Atomic.set poisoned true)
      in
      Thread.delay settle;
      let contenders =
        List.init users (fun pid ->
            Trace.record trace ~pid ~op:"use" ~phase:Trace.Request ();
            let c =
              spawn_started (fun () ->
                  match S.use t ~pid with
                  | () -> ()
                  | exception Fault.Injected _ -> Atomic.incr aborted
                  | exception Sync_csp.Csp.Poisoned _ ->
                    Atomic.set poisoned true)
            in
            Thread.delay settle;
            c)
      in
      Latch.arrive gate;
      Process.join holder;
      List.iter Process.join contenders);
  { abort_trace = Trace.events trace;
    users;
    aborted = Atomic.get aborted;
    poisoned = Atomic.get poisoned }

let check_abort report =
  match Ivl.check_wellformed report.abort_trace with
  | Error _ as e -> e
  | Ok () ->
    let ivls = Ivl.intervals report.abort_trace in
    (match Ivl.exclusion_violations ~conflicts:(fun _ _ -> true) ivls with
    | _ :: _ -> Error "mutual exclusion violated"
    | [] -> (
      let completed =
        List.length (List.filter (fun i -> i.Ivl.pid <> holder_pid) ivls)
      in
      if
        (not report.poisoned)
        && completed <> report.users - report.aborted
      then
        Error
          (Printf.sprintf
             "lost contenders: %d completed of %d launched (%d aborted)"
             completed report.users report.aborted)
      else
        match Ivl.fifo_violations ivls with
        | [] -> Ok ()
        | (a, b) :: _ ->
          Error
            (Printf.sprintf
               "FCFS violated among survivors: pid %d (request %d) granted \
                before pid %d (request %d)"
               a.Ivl.pid a.Ivl.request b.Ivl.pid b.Ivl.request)))

let check report =
  match Ivl.check_wellformed report.trace with
  | Error _ as e -> e
  | Ok () ->
  let ivls = Ivl.intervals report.trace in
  match Ivl.exclusion_violations ~conflicts:(fun _ _ -> true) ivls with
  | _ :: _ -> Error "mutual exclusion violated"
  | [] -> (
    match Ivl.fifo_violations ivls with
    | [] -> Ok ()
    | (a, b) :: _ ->
      Error
        (Printf.sprintf
           "FCFS violated: pid %d (request %d) granted before pid %d \
            (request %d)"
           a.Ivl.pid a.Ivl.request b.Ivl.pid b.Ivl.request))

let verify ?users ?rounds ?settle (module S : Fcfs_intf.S) =
  match run (module S) ?users ?rounds ?settle () with
  | report -> check report
  | exception Sync_resources.Busywork.Ill_synchronized msg ->
    Error ("resource contract violated: " ^ msg)
