(** Workload drivers and checkers for readers-writers.

    Two layers of evidence:

    - {!verify_exclusion}: a free-running stress mix. The self-checking
      {!Sync_resources.Store} catches any reader/writer overlap at the
      resource; the trace additionally confirms that reader concurrency
      really happened (a solution that degraded readers to mutual
      exclusion would pass the store check but fail this one).
    - {b driven scenarios} reproducing the paper's priority arguments
      exactly: each is a staging script played on the deterministic
      runtime, once per {!Staged} seed. {!scenario_writer_handoff} is
      Figure 1's footnote-3 situation: writer W1 active, writer W2 then
      reader R queue up, W1 leaves — who wins? {!scenario_reader_arrival}
      probes the dual situation: reader R1 active, writer W waiting,
      reader R2 arrives — may R2 overtake W? Together the two outcomes
      identify the implemented policy (see {!verify_policy}). *)

open Sync_platform

type outcome = Reader_first | Writer_first

let outcome_to_string = function
  | Reader_first -> "reader-first"
  | Writer_first -> "writer-first"

(* ------------------------------------------------------------------ *)
(* Stress mix                                                          *)

type report = { trace : Trace.event list; store : Sync_resources.Store.t }

let run_stress (module S : Rw_intf.S) ?(backend = `Thread) ?(readers = 4)
    ?(writers = 2) ?(reads_each = 40) ?(writes_each = 10) ?(work = 200) () =
  let trace = Trace.create () in
  let store = Sync_resources.Store.create ~work () in
  let res_read ~pid =
    Trace.record trace ~pid ~op:"read" ~phase:Trace.Enter ();
    let v = Sync_resources.Store.read store in
    Trace.record trace ~pid ~op:"read" ~phase:Trace.Exit ~arg:v ();
    v
  in
  let res_write ~pid =
    Trace.record trace ~pid ~op:"write" ~phase:Trace.Enter ();
    Sync_resources.Store.write store;
    Trace.record trace ~pid ~op:"write" ~phase:Trace.Exit ()
  in
  let t = S.create ~read:res_read ~write:res_write in
  let reader pid () =
    for _ = 1 to reads_each do
      Trace.record trace ~pid ~op:"read" ~phase:Trace.Request ();
      ignore (S.read t ~pid)
    done
  in
  let writer w () =
    let pid = 200 + w in
    for _ = 1 to writes_each do
      Trace.record trace ~pid ~op:"write" ~phase:Trace.Request ();
      S.write t ~pid
    done
  in
  Fun.protect
    ~finally:(fun () -> S.stop t)
    (fun () ->
      Process.run_all ~backend
        (List.init readers (fun pid -> reader pid)
        @ List.init writers (fun w -> writer w)));
  { trace = Trace.events trace; store }

let check_exclusion_events events =
  match Ivl.check_wellformed events with
  | Error _ as e -> e
  | Ok () ->
  let ivls = Ivl.intervals events in
  let conflicts a b = a = "write" || b = "write" in
  match Ivl.exclusion_violations ~conflicts ivls with
  | (a, b) :: _ ->
    Error
      (Printf.sprintf "exclusion violated: %s by pid %d overlaps %s by pid %d"
         a.Ivl.op a.Ivl.pid b.Ivl.op b.Ivl.pid)
  | [] -> Ok ()

let check_exclusion report = check_exclusion_events report.trace

(* Abort-injection variant of the stress mix: each operation body fires a
   fault site before touching the store, so an injected abort loses the
   operation but never corrupts it. Workers treat an abort as a skipped
   operation and continue — the mechanism must isolate the failure; the
   checker then demands the usual wellformedness and exclusion evidence
   from the surviving operations. A [`Poison] mechanism (CSP) makes the
   workers bail instead, recorded in the report. *)

type abort_report = {
  abort_trace : Trace.event list;
  aborted : int;
  poisoned : bool;
}

let run_abort (module S : Rw_intf.S) ?(backend = `Thread) ?(readers = 3)
    ?(writers = 2) ?(reads_each = 20) ?(writes_each = 8) ?(work = 50) () =
  let trace = Trace.create () in
  let store = Sync_resources.Store.create ~work () in
  let res_read ~pid =
    Fault.site "rw.read.body";
    Trace.record trace ~pid ~op:"read" ~phase:Trace.Enter ();
    let v = Sync_resources.Store.read store in
    Trace.record trace ~pid ~op:"read" ~phase:Trace.Exit ~arg:v ();
    v
  in
  let res_write ~pid =
    Fault.site "rw.write.body";
    Trace.record trace ~pid ~op:"write" ~phase:Trace.Enter ();
    Sync_resources.Store.write store;
    Trace.record trace ~pid ~op:"write" ~phase:Trace.Exit ()
  in
  let t = S.create ~read:res_read ~write:res_write in
  let aborted = Atomic.make 0 in
  let poisoned = Atomic.make false in
  let step pid op =
    Trace.record trace ~pid ~op ~phase:Trace.Request ();
    match if op = "read" then ignore (S.read t ~pid) else S.write t ~pid with
    | () -> ()
    | exception Fault.Injected _ -> Atomic.incr aborted
    | exception Sync_csp.Csp.Poisoned _ ->
      Atomic.set poisoned true;
      raise Exit
  in
  let worker pid op n () = try for _ = 1 to n do step pid op done with Exit -> () in
  Fun.protect
    (* Teardown is masked: a fault injected inside [stop] would leave
       the CSP server parked for good. *)
    ~finally:(fun () -> try Fault.mask (fun () -> S.stop t) with _ -> ())
    (fun () ->
      Process.run_all ~backend
        (List.init readers (fun pid -> worker pid "read" reads_each)
        @ List.init writers (fun w -> worker (200 + w) "write" writes_each)));
  { abort_trace = Trace.events trace;
    aborted = Atomic.get aborted;
    poisoned = Atomic.get poisoned }

let check_abort report = check_exclusion_events report.abort_trace

let verify_exclusion ?backend ?readers ?writers ?reads_each ?writes_each
    (module S : Rw_intf.S) =
  match
    run_stress (module S) ?backend ?readers ?writers ?reads_each ?writes_each
      ()
  with
  | report -> check_exclusion report
  | exception Sync_resources.Busywork.Ill_synchronized msg ->
    Error ("resource contract violated: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Driven scenarios                                                    *)

(* A staging script. [Read pid] / [Write pid] launch one operation;
   [Release pid] opens the gate [pid] is blocked on inside its resource
   body. Every pid that some [Release] names is gated. *)
type step = Read of int | Write of int | Release of int

(* Play [script] inside a det run. Quiescence separates the steps, so
   every arrival has entered or parked in the mechanism before the next
   step: the arrival order is exact by construction and the outcome
   depends only on the mechanism's own grant decisions. Returns the
   trace once every operation has finished. *)
let stage (module S : Rw_intf.S) script =
  let trace = Trace.create () in
  let gates =
    List.filter_map
      (function Release pid -> Some (pid, Latch.create 1) | _ -> None)
      script
  in
  let res op ~pid =
    Trace.record trace ~pid ~op ~phase:Trace.Enter ();
    Option.iter Latch.wait (List.assoc_opt pid gates);
    Trace.record trace ~pid ~op ~phase:Trace.Exit ()
  in
  let t =
    S.create
      ~read:(fun ~pid ->
        res "read" ~pid;
        0)
      ~write:(res "write")
  in
  let play = function
    | Read pid -> Some (Process.spawn (fun () -> ignore (S.read t ~pid)))
    | Write pid -> Some (Process.spawn (fun () -> S.write t ~pid))
    | Release pid ->
      Latch.arrive (List.assoc pid gates);
      None
  in
  let procs =
    List.mapi
      (fun i step ->
        if i > 0 then Detrt.await_quiescence ();
        play step)
      script
  in
  List.iter Process.join (List.filter_map Fun.id procs);
  S.stop t;
  Trace.events trace

let enters events =
  List.filter_map
    (fun (e : Trace.event) ->
      if e.phase = Trace.Enter then Some e.pid else None)
    events

(* The first grant to anyone but [pid]. *)
let first_grant_after ~what pid events =
  match List.filter (( <> ) pid) (enters events) with
  | p :: _ -> p
  | [] -> failwith (what ^ ": no grants recorded")

(* Reader concurrency cannot be asserted statistically on one core, so it
   gets its own driven scenario: with no writers anywhere, a second reader
   must be able to enter while the first is still inside. Every policy
   must pass. [Rw_epoch]'s writer spins on plain atomics and would never
   yield a det run; this scenario is the only one it plays (its policy is
   [No_priority], so {!verify_policy} stages nothing for it), and it has
   no writer. *)
let det_scenario_reader_overlap (module S : Rw_intf.S) () =
  let events = stage (module S) [ Read 1; Read 2; Release 1 ] in
  if Ivl.max_concurrency ~op:"read" (Ivl.intervals events) >= 2 then Ok ()
  else Error "second reader could not overlap the first: readers serialized"

let scenario_reader_overlap m = Staged.check (det_scenario_reader_overlap m)

(* Writer W1 is mid-write; writer W2 then reader R arrive (in that order)
   and park; W1 finishes. Reports who is granted first. Under a correct
   readers-priority policy the reader wins (Courtois: it arrived while no
   reader had been excluded by anything but the active writer); Figure 1
   lets W2 overtake — footnote 3. Must be called inside a [Detrt.run]
   body; the {!Sync_detsched} catalog explores it directly. *)
let det_scenario_writer_handoff (module S : Rw_intf.S) () =
  let w1 = 200 and w2 = 201 and r = 1 in
  let events = stage (module S) [ Write w1; Write w2; Read r; Release w1 ] in
  let first = first_grant_after ~what:"writer handoff" w1 events in
  ((if first = r then Reader_first else Writer_first), events)

let scenario_writer_handoff m =
  Staged.outcome (fun () -> fst (det_scenario_writer_handoff m ()))

(* Reader R1 is mid-read; writer W arrives and parks; reader R2 arrives.
   May R2 begin (overtaking W)? Readers-priority: yes. Writers-priority
   and FCFS: no. *)
let det_scenario_reader_arrival (module S : Rw_intf.S) () =
  let r1 = 1 and r2 = 2 and w = 200 in
  let events = stage (module S) [ Read r1; Write w; Read r2; Release r1 ] in
  if first_grant_after ~what:"reader arrival" r1 events = r2 then
    Reader_first
  else Writer_first

let scenario_reader_arrival m = Staged.outcome (det_scenario_reader_arrival m)

(* Writer starvation (the paper notes readers-priority "allows writers to
   starve"), as a relay: reader R1 is inside, writer W parks, and then
   each next reader arrives before the previous one leaves, so some
   reader is inside at every moment of the stream. Under
   readers-priority W waits out the whole relay — its grant follows
   every reader's; under FCFS and writers-priority it is admitted as
   soon as R1 leaves, ahead of the readers that queued behind it. *)
let det_scenario_writer_starvation (module S : Rw_intf.S) () =
  let readers = 3 and w = 200 in
  let relay =
    List.concat
      (List.init (readers - 1) (fun i -> [ Read (i + 2); Release (i + 1) ]))
  in
  let events =
    stage (module S) ((Read 1 :: Write w :: relay) @ [ Release readers ])
  in
  match List.rev (enters events) with
  | last :: _ -> last = w
  | [] -> failwith "writer starvation: no grants recorded"

let scenario_writer_starvation m =
  Staged.outcome (det_scenario_writer_starvation m)

(* What the two scenario outcomes must be for each policy. *)
let expected_outcomes = function
  | Rw_intf.Readers_priority -> Some (Reader_first, Reader_first)
  | Rw_intf.Writers_priority -> Some (Writer_first, Writer_first)
  | Rw_intf.Fcfs -> Some (Writer_first, Writer_first)
  | Rw_intf.No_priority -> None (* any outcome is acceptable *)

(* Checker for {!det_scenario_writer_handoff}: trace well-formedness,
   reader/writer exclusion, and the policy's expected winner. *)
let det_check_writer_handoff (module S : Rw_intf.S) (outcome, events) =
  match check_exclusion_events events with
  | Error _ as e -> e
  | Ok () -> (
    match expected_outcomes S.policy with
    | None -> Ok ()
    | Some (expected, _) ->
      if outcome = expected then Ok ()
      else
        Error
          (Printf.sprintf "writer-handoff: %s policy expected %s, got %s"
             (Rw_intf.policy_to_string S.policy)
             (outcome_to_string expected)
             (outcome_to_string outcome)))

(* Both scenarios, each on every seed: the handoff first, so a
   footnote-3 anomaly is reported as such. *)
let verify_policy (module S : Rw_intf.S) =
  match expected_outcomes S.policy with
  | None -> Ok ()
  | Some (exp_handoff, exp_arrival) ->
    let expect what expected scenario =
      Staged.check (fun () ->
          let got = scenario () in
          if got = expected then Ok ()
          else
            Error
              (Printf.sprintf "%s scenario: expected %s, got %s" what
                 (outcome_to_string expected)
                 (outcome_to_string got)))
    in
    Result.bind
      (expect "writer-handoff" exp_handoff (fun () ->
           fst (det_scenario_writer_handoff (module S) ())))
      (fun () ->
        expect "reader-arrival" exp_arrival
          (det_scenario_reader_arrival (module S)))
