(** Workload drivers and checkers for the disk-head scheduler.

    SCAN order is timing-sensitive in free-running workloads, so the
    conformance check is {e staged} on the deterministic runtime
    ({!Staged}): a holder occupies the disk at a known track, a batch of
    requests parks (each waiting for quiescence, so the arrival order is
    exact), the holder releases, and the drain order must equal the pure
    elevator order computed from the batch — ascending tracks at or above
    the head, then descending below it. The stress driver checks exclusion
    and completion under noise and reports total arm travel (the figure
    of merit for bench E-disk, SCAN vs the {!Disk_fcfs} baseline). *)

open Sync_platform

let holder_pid = 999

(* Pure elevator drain order for a pending batch, head at [h] sweeping up
   (the staging leaves every solution in that state). *)
let expected_scan ~head tracks =
  let up = List.filter (fun t -> t >= head) tracks in
  let down = List.filter (fun t -> t < head) tracks in
  List.sort compare up @ List.rev (List.sort compare down)

(* The staged batch. Must be called inside a [Detrt.run] body. *)
let run_staged (module S : Disk_intf.S) ?(tracks = 100) ?(head = 50)
    ?(batch = [ 10; 60; 55; 20; 90; 5; 75 ]) () =
  let trace = Trace.create () in
  let gate = Latch.create 1 in
  let res_access ~pid track =
    Trace.record trace ~pid ~op:"access" ~phase:Trace.Enter ~arg:track ();
    if pid = holder_pid then Latch.wait gate;
    Trace.record trace ~pid ~op:"access" ~phase:Trace.Exit ~arg:track ()
  in
  let t = S.create ~tracks ~access:res_access in
  let holder = Process.spawn (fun () -> S.access t ~pid:holder_pid head) in
  Detrt.await_quiescence ();
  let requesters =
    List.mapi
      (fun i track ->
        let r = Process.spawn (fun () -> S.access t ~pid:i track) in
        Detrt.await_quiescence ();
        r)
      batch
  in
  Latch.arrive gate;
  Process.join holder;
  List.iter Process.join requesters;
  S.stop t;
  let events = Trace.events trace in
  let order =
    List.filter_map
      (fun i ->
        if i.Ivl.pid = holder_pid then None else Some i.Ivl.arg)
      (Ivl.intervals events)
  in
  (order, expected_scan ~head batch, events)

let verify_scan ?batch (module S : Disk_intf.S) =
  Staged.check (fun () ->
      let got, expected, events = run_staged (module S) ?batch () in
      match Ivl.check_wellformed events with
      | Error _ as e -> e
      | Ok () ->
        if got = expected then Ok ()
        else
          Error
            (Printf.sprintf
               "SCAN order violated: served [%s], elevator wants [%s]"
               (String.concat "; " (List.map string_of_int got))
               (String.concat "; " (List.map string_of_int expected))))

(* Free-running stress: correctness = exclusion + completion; returns the
   accumulated arm travel for throughput/travel comparisons. *)
let run_stress (module S : Disk_intf.S) ?(tracks = 200) ?(workers = 6)
    ?(requests_each = 30) ?(work = 60) ?(hold_s = 0.0) ~seed () =
  let trace = Trace.create () in
  let disk = Sync_resources.Disk.create ~work ~tracks () in
  let res_access ~pid track =
    ignore pid;
    Sync_resources.Disk.access disk track;
    (* A real sleep releases the runtime lock deterministically, letting a
       request backlog build even on one core — cooperative spinning alone
       does not reliably deschedule the holder. *)
    if hold_s > 0.0 then Thread.delay hold_s
  in
  let t = S.create ~tracks ~access:res_access in
  let worker w () =
    let rng = Prng.make (Int64.add seed (Int64.of_int w)) in
    for _ = 1 to requests_each do
      let track = Prng.int rng tracks in
      Trace.record trace ~pid:w ~op:"access" ~phase:Trace.Request ~arg:track ();
      S.access t ~pid:w track
    done
  in
  Fun.protect
    ~finally:(fun () -> S.stop t)
    (fun () ->
      Process.run_all ~backend:`Thread
        (List.init workers (fun w -> worker w)));
  (Sync_resources.Disk.travel disk, Sync_resources.Disk.accesses disk)

let verify_stress ?tracks ?workers ?requests_each (module S : Disk_intf.S) =
  match run_stress (module S) ?tracks ?workers ?requests_each ~seed:11L () with
  | _, accesses ->
    let expected =
      Option.value workers ~default:6 * Option.value requests_each ~default:30
    in
    if accesses = expected then Ok ()
    else
      Error
        (Printf.sprintf "lost requests: %d served of %d" accesses expected)
  | exception Sync_resources.Busywork.Ill_synchronized msg ->
    Error ("resource contract violated: " ^ msg)
