(** Workload driver and checker for the bounded-buffer problem.

    Values are tagged [pid * 1_000_000 + k] so the checker can verify, per
    producer, that the buffer preserved FIFO order. Correctness evidence:

    - the self-checking {!Sync_resources.Ring} raises [Ill_synchronized]
      on overfill, underflow, or same-side overlap (reported as [Error]);
    - consumed values are exactly the produced values (no loss, no
      duplication);
    - for each producer, its values are consumed in production order. *)

open Sync_platform

type report = {
  trace : Trace.event list;
  produced : int list; (* all values, in a canonical order *)
  consumed : int list; (* in buffer pop order *)
}

let tag ~pid k = (pid * 1_000_000) + k

let producer_of v = v / 1_000_000

let seq_of v = v mod 1_000_000

let run (module B : Bb_intf.S) ?(backend = `Thread) ?(capacity = 4)
    ?(producers = 2) ?(consumers = 2) ?(items_per_producer = 50) ?(work = 30)
    ~seed () =
  ignore seed;
  let trace = Trace.create () in
  let ring = Sync_resources.Ring.create ~work capacity in
  let res_put ~pid v =
    Trace.record trace ~pid ~op:"put" ~phase:Trace.Enter ~arg:v ();
    Sync_resources.Ring.put ring v;
    Trace.record trace ~pid ~op:"put" ~phase:Trace.Exit ~arg:v ()
  in
  let res_get ~pid =
    Trace.record trace ~pid ~op:"get" ~phase:Trace.Enter ();
    let v = Sync_resources.Ring.get ring in
    Trace.record trace ~pid ~op:"get" ~phase:Trace.Exit ~arg:v ();
    v
  in
  let buffer = B.create ~capacity ~put:res_put ~get:res_get in
  let total = producers * items_per_producer in
  let share c =
    (* Consumer c's number of items; shares differ by at most one. *)
    (total / consumers) + (if c < total mod consumers then 1 else 0)
  in
  let produce pid () =
    for k = 1 to items_per_producer do
      let v = tag ~pid k in
      Trace.record trace ~pid ~op:"put" ~phase:Trace.Request ~arg:v ();
      B.put buffer ~pid v
    done
  in
  let consume c () =
    let pid = 100 + c in
    for _ = 1 to share c do
      Trace.record trace ~pid ~op:"get" ~phase:Trace.Request ();
      ignore (B.get buffer ~pid)
    done
  in
  let workers =
    List.init producers (fun pid -> produce pid)
    @ List.init consumers (fun c -> consume c)
  in
  Fun.protect
    ~finally:(fun () -> B.stop buffer)
    (fun () -> Process.run_all ~backend workers);
  let events = Trace.events trace in
  let ivls = Ivl.intervals events in
  let consumed =
    List.filter_map
      (fun i -> if i.Ivl.op = "get" then Some (i.Ivl.enter, i.Ivl.ret) else None)
      ivls
    |> List.sort compare |> List.map snd
  in
  let produced =
    List.concat_map
      (fun pid -> List.init items_per_producer (fun k -> tag ~pid (k + 1)))
      (List.init producers Fun.id)
  in
  { trace = events; produced; consumed }

let check ~producers report =
  match Ivl.check_wellformed report.trace with
  | Error _ as e -> e
  | Ok () ->
  let sorted_eq a b = List.sort compare a = List.sort compare b in
  if not (sorted_eq report.produced report.consumed) then
    Error
      (Printf.sprintf "value conservation violated: %d produced, %d consumed"
         (List.length report.produced)
         (List.length report.consumed))
  else begin
    (* Per-producer FIFO: each producer's values appear in pop order with
       increasing sequence numbers. *)
    let rec check_producer pid =
      if pid >= producers then Ok ()
      else
        let seqs =
          List.filter_map
            (fun v -> if producer_of v = pid then Some (seq_of v) else None)
            report.consumed
        in
        let sorted = List.sort compare seqs in
        if seqs <> sorted then
          Error (Printf.sprintf "producer %d's items reordered" pid)
        else check_producer (pid + 1)
    in
    check_producer 0
  end

(** {1 Abort-injection workload}

    Same shape as {!run}, but executed under a {!Sync_platform.Fault}
    plan: each operation body fires a fault site (["bb.put.body"] /
    ["bb.get.body"]) {e before} touching the ring, and mechanism-internal
    sites (["*.pre-wait"], ["waitq.post-wakeup"], ...) may fire inside
    [B.put]/[B.get] themselves. Producers treat an injected abort as a
    lost item and move on; consumers retry (an aborted get consumed
    nothing). Termination does not depend on counting items — after the
    producers finish, the driver hands each consumer a sentinel through
    the buffer itself. A mechanism with the [`Poison] policy (CSP) makes
    everyone bail out instead, which the report records.

    Body-site triggers must eventually stop firing ([Nth]/[Every]/[Prob],
    not [Always]): consumers retry aborted gets, and the sentinel
    hand-off retries aborted puts. *)

type abort_report = {
  trace : Trace.event list;
  produced_ok : int list; (* values whose put returned normally *)
  consumed : int list; (* real values, in buffer pop order *)
  aborted_puts : int;
  aborted_gets : int;
  poisoned : bool; (* the mechanism poisoned itself (CSP abort policy) *)
}

let sentinel = max_int

let run_abort (module B : Bb_intf.S) ?(backend = `Thread) ?(capacity = 4)
    ?(producers = 2) ?(consumers = 2) ?(items_per_producer = 30) () =
  let trace = Trace.create () in
  let ring = Sync_resources.Ring.create ~work:10 capacity in
  let res_put ~pid v =
    (* Site fires before the ring is touched: an aborted put stored
       nothing, so the trace has no Enter and the value counts as lost. *)
    if v <> sentinel then Fault.site "bb.put.body";
    Trace.record trace ~pid ~op:"put" ~phase:Trace.Enter ~arg:v ();
    Sync_resources.Ring.put ring v;
    Trace.record trace ~pid ~op:"put" ~phase:Trace.Exit ~arg:v ()
  in
  let res_get ~pid =
    Fault.site "bb.get.body";
    Trace.record trace ~pid ~op:"get" ~phase:Trace.Enter ();
    let v = Sync_resources.Ring.get ring in
    Trace.record trace ~pid ~op:"get" ~phase:Trace.Exit ~arg:v ();
    v
  in
  let buffer = B.create ~capacity ~put:res_put ~get:res_get in
  let produced_ok = Array.make producers [] in
  let aborted_puts = Atomic.make 0 in
  let aborted_gets = Atomic.make 0 in
  let poisoned = Atomic.make false in
  let produce pid () =
    try
      for k = 1 to items_per_producer do
        let v = tag ~pid k in
        Trace.record trace ~pid ~op:"put" ~phase:Trace.Request ~arg:v ();
        match B.put buffer ~pid v with
        | () -> produced_ok.(pid) <- v :: produced_ok.(pid)
        | exception Fault.Injected _ -> Atomic.incr aborted_puts
        | exception Sync_csp.Csp.Poisoned _ ->
          Atomic.set poisoned true;
          raise Exit
      done
    with Exit -> ()
  in
  let consume c () =
    let pid = 100 + c in
    let rec loop () =
      Trace.record trace ~pid ~op:"get" ~phase:Trace.Request ();
      match B.get buffer ~pid with
      | v -> if v <> sentinel then loop ()
      | exception Fault.Injected _ ->
        Atomic.incr aborted_gets;
        loop ()
      | exception Sync_csp.Csp.Poisoned _ -> Atomic.set poisoned true
    in
    loop ()
  in
  Fun.protect
    (* Teardown is masked: a fault injected inside [stop] would leave
       the CSP server parked for good. A poisoned mechanism may still
       fail its own stop protocol; that is part of the abort contract,
       not a harness error. *)
    ~finally:(fun () -> try Fault.mask (fun () -> B.stop buffer) with _ -> ())
    (fun () ->
      let prods =
        List.init producers (fun pid -> Process.spawn ~backend (produce pid))
      in
      let cons =
        List.init consumers (fun c -> Process.spawn ~backend (consume c))
      in
      List.iter Process.join prods;
      for i = 0 to consumers - 1 do
        let pid = 900 + i in
        let rec put_sentinel () =
          match B.put buffer ~pid sentinel with
          | () -> ()
          | exception Fault.Injected _ -> put_sentinel ()
          | exception Sync_csp.Csp.Poisoned _ -> Atomic.set poisoned true
        in
        put_sentinel ()
      done;
      List.iter Process.join cons);
  let events = Trace.events trace in
  let consumed =
    List.filter_map
      (fun i ->
        if i.Ivl.op = "get" && i.Ivl.ret <> sentinel then
          Some (i.Ivl.enter, i.Ivl.ret)
        else None)
      (Ivl.intervals events)
    |> List.sort compare |> List.map snd
  in
  { trace = events;
    produced_ok =
      List.concat_map (fun l -> List.rev l) (Array.to_list produced_ok);
    consumed;
    aborted_puts = Atomic.get aborted_puts;
    aborted_gets = Atomic.get aborted_gets;
    poisoned = Atomic.get poisoned }

let check_abort ~producers report =
  match Ivl.check_wellformed report.trace with
  | Error _ as e -> e
  | Ok () ->
    let fifo () =
      let rec check_producer pid =
        if pid >= producers then Ok ()
        else
          let seqs =
            List.filter_map
              (fun v -> if producer_of v = pid then Some (seq_of v) else None)
              report.consumed
          in
          if seqs <> List.sort compare seqs then
            Error (Printf.sprintf "producer %d's items reordered" pid)
          else check_producer (pid + 1)
      in
      check_producer 0
    in
    if report.poisoned then begin
      (* Poisoned runs may drop in-flight items, but must never invent or
         duplicate one. *)
      let dup =
        List.length report.consumed
        <> List.length (List.sort_uniq compare report.consumed)
      in
      if dup then Error "poisoned run duplicated a value"
      else if
        List.exists
          (fun v -> not (List.mem v report.produced_ok))
          report.consumed
      then Error "poisoned run consumed a value never produced"
      else fifo ()
    end
    else if
      List.sort compare report.produced_ok <> List.sort compare report.consumed
    then
      Error
        (Printf.sprintf
           "conservation violated under aborts: %d put ok, %d consumed"
           (List.length report.produced_ok)
           (List.length report.consumed))
    else fifo ()

let verify ?backend ?(capacity = 4) ?(producers = 2) ?(consumers = 2)
    ?(items_per_producer = 50) (module B : Bb_intf.S) =
  match
    run (module B) ?backend ~capacity ~producers ~consumers
      ~items_per_producer ~seed:7L ()
  with
  | report -> check ~producers report
  | exception Sync_resources.Busywork.Ill_synchronized msg ->
    Error ("resource contract violated: " ^ msg)
