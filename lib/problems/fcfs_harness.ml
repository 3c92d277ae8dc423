(** Workload driver and checker for the FCFS problem.

    Checking grant order against request order from a free-running
    concurrent trace is unsound (recording and queue arrival can be
    reordered by scheduling noise), so the driver builds a deterministic
    queue instead, on the deterministic runtime ({!Staged}): a
    distinguished {e holder} occupies the resource (its resource body
    blocks on a latch), the driver then launches the contenders one at a
    time — recording each [Request] itself, in launch order, and waiting
    for quiescence so that each is parked in the mechanism before the
    next is launched — and finally releases the holder. The request order
    is exact by construction, so the drain order depends only on the
    mechanism. The checker requires the drain order to equal the launch
    order, plus mutual exclusion from the trace. *)

open Sync_platform

type report = { trace : Trace.event list }

let holder_pid = 999

(* One staged round, inside a det run: [holder] enters and blocks on
   [gate]; contenders [0 .. users-1] request in pid order, each parked
   before the next is launched; then the gate opens and all are joined. *)
let stage ~trace ~gate ~users ~holder ~contender =
  let h = Process.spawn holder in
  Detrt.await_quiescence ();
  let cs =
    List.init users (fun pid ->
        Trace.record trace ~pid ~op:"use" ~phase:Trace.Request ();
        let c = Process.spawn (fun () -> contender pid) in
        Detrt.await_quiescence ();
        c)
  in
  Latch.arrive gate;
  Process.join h;
  List.iter Process.join cs

(* The staged FCFS round. Must be called inside a [Detrt.run] body. *)
let run (module S : Fcfs_intf.S) ?(users = 5) () =
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
      stage ~trace ~gate ~users
        ~holder:(fun () -> S.use t ~pid:holder_pid)
        ~contender:(fun pid -> S.use t ~pid));
  { trace = Trace.events trace }

(* Abort-injection variant of {!run}, the same staged round: the body
   fault site ["fcfs.use.body"] may abort a contender's use (the holder
   is exempt — it anchors the staging), and mechanism-internal sites may
   abort a parked contender out of the queue. An aborted contender simply
   drops out; the drain must still be FIFO over the survivors, exclusive,
   and complete. Must be called inside a [Detrt.run] body. *)

type abort_report = {
  abort_trace : Trace.event list;
  users : int;
  aborted : int;
  poisoned : bool;
}

let run_abort (module S : Fcfs_intf.S) ?(users = 5) () =
  let trace = Trace.create () in
  let gate = Latch.create 1 in
  let res_use ~pid =
    if pid <> holder_pid then Fault.site "fcfs.use.body";
    Trace.record trace ~pid ~op:"use" ~phase:Trace.Enter ();
    if pid = holder_pid then Latch.wait gate;
    Trace.record trace ~pid ~op:"use" ~phase:Trace.Exit ()
  in
  let t = S.create ~use:res_use in
  let aborted = ref 0 in
  let poisoned = ref false in
  Fun.protect
    (* Teardown is masked: a fault injected inside [stop] would leave
       the CSP server parked for good. A poisoned mechanism may still
       fail its own stop protocol; that is part of the abort contract. *)
    ~finally:(fun () -> try Fault.mask (fun () -> S.stop t) with _ -> ())
    (fun () ->
      stage ~trace ~gate ~users
        ~holder:(fun () ->
          try S.use t ~pid:holder_pid
          with Sync_csp.Csp.Poisoned _ -> poisoned := true)
        ~contender:(fun pid ->
          match S.use t ~pid with
          | () -> ()
          | exception Fault.Injected _ -> incr aborted
          | exception Sync_csp.Csp.Poisoned _ -> poisoned := true));
  { abort_trace = Trace.events trace;
    users;
    aborted = !aborted;
    poisoned = !poisoned }

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

let verify ?users (module S : Fcfs_intf.S) =
  Staged.check (fun () -> check (run (module S) ?users ()))
