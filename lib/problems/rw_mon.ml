(** Readers-writers with Hoare monitors, one synchronizer per policy.

    - {!Readers_prio} and {!Writers_prio} follow Hoare'74's
      readers-writers style: a readercount plus a writing flag, two
      conditions ([oktoread]/[oktowrite]); the policies differ only in
      whose queue is consulted at release points and in whether arriving
      readers defer to waiting writers — which is the point: under
      monitors the priority constraint is a {e local} edit.
    - {!Fcfs} is the paper's Section-5.2 {b two-stage queue}: request-time
      and request-type information both want the condition queue, so
      arrivals first pass a ticket stage (a priority-wait on their ticket
      number), and only the head of that stage waits on its type-specific
      second-stage condition. *)

open Sync_monitor
open Sync_taxonomy

(* A reader's cascade signal runs after [readers] already counts it, so it
   must not abort: the signaller's urgent wait is a fault site, and an
   abort there would leave the count raised with no read to lower it, so
   writers would wait forever. *)
let cascade c = Sync_platform.Fault.mask (fun () -> Monitor.Cond.signal c)

module Make_readers_prio (D : sig
  val discipline : Monitor.discipline

  val variant : string

  val readers_first : bool
  (** The release-site choice: [false] reverses it (writers first), the
      one-line edit that turns the policy around. *)
end) =
struct
  type t = {
    mon : Monitor.t;
    oktoread : Monitor.Cond.t;
    oktowrite : Monitor.Cond.t;
    mutable readers : int;
    mutable writing : bool;
    res_read : pid:int -> int;
    res_write : pid:int -> unit;
  }

  let mechanism = "monitor"

  let policy = Rw_intf.Readers_priority

  let create ~read ~write =
    let mon = Monitor.create ~discipline:D.discipline () in
    { mon; oktoread = Monitor.Cond.create mon;
      oktowrite = Monitor.Cond.create mon; readers = 0; writing = false;
      res_read = read; res_write = write }

  let read t ~pid =
    Protected.access t.mon
      ~before:(fun () ->
        (* Readers never wait unless a writer holds the resource: no test
           of the writer queue here. *)
        while t.writing do
          Monitor.Cond.wait t.oktoread
        done;
        t.readers <- t.readers + 1;
        (* Chain-admit the next queued reader (Hoare's cascade). *)
        cascade t.oktoread)
      ~after:(fun () ->
        t.readers <- t.readers - 1;
        if t.readers = 0 then Monitor.Cond.signal t.oktowrite)
      (fun () -> t.res_read ~pid)

  let signal_first c ~else_ =
    if Monitor.Cond.queue c then Monitor.Cond.signal c
    else Monitor.Cond.signal else_

  let write t ~pid =
    Protected.access t.mon
      ~before:(fun () ->
        while t.writing || t.readers > 0 do
          Monitor.Cond.wait t.oktowrite
        done;
        t.writing <- true)
      ~after:(fun () ->
        t.writing <- false;
        (* Readers first: the priority constraint lives in this line. *)
        if D.readers_first then signal_first t.oktoread ~else_:t.oktowrite
        else signal_first t.oktowrite ~else_:t.oktoread)
      (fun () -> t.res_write ~pid)

  let stop _ = ()

  let meta =
    Meta.make ~mechanism ~problem:"readers-writers" ~variant:D.variant
      ~fragments:
        [ ("rw-exclusion",
           [ "readers"; "writing"; "while writing wait(oktoread)";
             "while writing||readers>0 wait(oktowrite)" ]);
          ("rw-priority",
           [ (if D.readers_first then
                "if queue(oktoread) signal(oktoread) else signal(oktowrite)"
              else "if queue(oktowrite) signal(oktowrite) else signal(oktoread)")
           ]) ]
      ~info_access:
        [ (Info.Request_type, Meta.Direct); (Info.Sync_state, Meta.Indirect) ]
      ~aux_state:[ "readers count"; "writing flag" ]
      ~separation:Meta.Separated ()
end

module Readers_prio = Make_readers_prio (struct
  let discipline = `Hoare

  let variant = Rw_intf.policy_to_string Rw_intf.Readers_priority

  let readers_first = true
end)

(* Discipline ablation: the identical synchronizer under Mesa
   signal-and-continue. The while-loop re-checks make it correct, and the
   guards (not the wake order) carry the policy, so even the strict
   handoff scenario still comes out reader-first. *)
module Readers_prio_mesa = Make_readers_prio (struct
  let discipline = `Mesa

  let variant = "readers-priority-mesa"

  let readers_first = true
end)

module Writers_prio = struct
  type t = {
    mon : Monitor.t;
    oktoread : Monitor.Cond.t;
    oktowrite : Monitor.Cond.t;
    mutable readers : int;
    mutable writing : bool;
    res_read : pid:int -> int;
    res_write : pid:int -> unit;
  }

  let mechanism = "monitor"

  let policy = Rw_intf.Writers_priority

  let create ~read ~write =
    let mon = Monitor.create ~discipline:`Hoare () in
    { mon; oktoread = Monitor.Cond.create mon;
      oktowrite = Monitor.Cond.create mon; readers = 0; writing = false;
      res_read = read; res_write = write }

  let read t ~pid =
    Protected.access t.mon
      ~before:(fun () ->
        (* Arriving readers defer to waiting writers: the only change
           against the readers-priority variant's exclusion test. *)
        while t.writing || Monitor.Cond.queue t.oktowrite do
          Monitor.Cond.wait t.oktoread
        done;
        t.readers <- t.readers + 1;
        cascade t.oktoread)
      ~after:(fun () ->
        t.readers <- t.readers - 1;
        if t.readers = 0 then Monitor.Cond.signal t.oktowrite)
      (fun () -> t.res_read ~pid)

  let write t ~pid =
    Protected.access t.mon
      ~before:(fun () ->
        while t.writing || t.readers > 0 do
          Monitor.Cond.wait t.oktowrite
        done;
        t.writing <- true)
      ~after:(fun () ->
        t.writing <- false;
        (* Writers first. *)
        if Monitor.Cond.queue t.oktowrite then Monitor.Cond.signal t.oktowrite
        else Monitor.Cond.signal t.oktoread)
      (fun () -> t.res_write ~pid)

  let stop _ = ()

  let meta =
    Meta.make ~mechanism ~problem:"readers-writers"
      ~variant:(Rw_intf.policy_to_string policy)
      ~fragments:
        [ ("rw-exclusion",
           [ "readers"; "writing"; "while writing wait(oktoread)";
             "while writing||readers>0 wait(oktowrite)" ]);
          ("rw-priority",
           [ "queue(oktowrite) in reader admission";
             "if queue(oktowrite) signal(oktowrite) else signal(oktoread)" ])
        ]
      ~info_access:
        [ (Info.Request_type, Meta.Direct); (Info.Sync_state, Meta.Indirect) ]
      ~aux_state:[ "readers count"; "writing flag" ]
      ~separation:Meta.Separated ()
end

module Fcfs = struct
  type t = {
    mon : Monitor.t;
    turn : Monitor.Cond.t;     (* stage 1: tickets, priority-waited *)
    oktoread : Monitor.Cond.t;   (* stage 2, readers (head only) *)
    oktowrite : Monitor.Cond.t;  (* stage 2, writers (head only) *)
    mutable next_ticket : int;
    mutable serving : int;
    mutable readers : int;
    mutable writing : bool;
    res_read : pid:int -> int;
    res_write : pid:int -> unit;
  }

  let mechanism = "monitor"

  let policy = Rw_intf.Fcfs

  let create ~read ~write =
    let mon = Monitor.create ~discipline:`Hoare () in
    { mon; turn = Monitor.Cond.create mon; oktoread = Monitor.Cond.create mon;
      oktowrite = Monitor.Cond.create mon; next_ticket = 0; serving = 0;
      readers = 0; writing = false; res_read = read; res_write = write }

  (* Stage 1: wait until my ticket is served; at most the head proceeds to
     stage 2. *)
  let await_turn t =
    let ticket = t.next_ticket in
    t.next_ticket <- t.next_ticket + 1;
    while ticket <> t.serving do
      Monitor.Cond.wait_pri t.turn ticket
    done

  let advance t =
    t.serving <- t.serving + 1;
    Monitor.Cond.signal t.turn

  let read t ~pid =
    Protected.access t.mon
      ~before:(fun () ->
        await_turn t;
        (* Stage 2: I am the admission head; wait for my type's condition
           without letting later arrivals pass (serving is not advanced
           until I am admitted). *)
        while t.writing do
          Monitor.Cond.wait t.oktoread
        done;
        t.readers <- t.readers + 1;
        advance t)
      ~after:(fun () ->
        t.readers <- t.readers - 1;
        if t.readers = 0 then Monitor.Cond.signal t.oktowrite)
      (fun () -> t.res_read ~pid)

  let write t ~pid =
    Protected.access t.mon
      ~before:(fun () ->
        await_turn t;
        while t.writing || t.readers > 0 do
          Monitor.Cond.wait t.oktowrite
        done;
        t.writing <- true;
        advance t)
      ~after:(fun () ->
        t.writing <- false;
        Monitor.Cond.signal t.oktoread;
        Monitor.Cond.signal t.oktowrite)
      (fun () -> t.res_write ~pid)

  let stop _ = ()

  let meta =
    Meta.make ~mechanism ~problem:"readers-writers"
      ~variant:(Rw_intf.policy_to_string policy)
      ~fragments:
        [ ("rw-exclusion",
           [ "readers"; "writing"; "while writing wait(oktoread)";
             "while writing||readers>0 wait(oktowrite)" ]);
          ("rw-priority",
           [ "ticket"; "serving"; "wait_pri(turn,ticket)"; "two-stage";
             "advance" ]) ]
      ~info_access:
        [ (Info.Request_type, Meta.Direct); (Info.Sync_state, Meta.Indirect);
          (Info.Request_time, Meta.Direct) ]
      ~aux_state:
        [ "readers count"; "writing flag"; "ticket dispenser";
          "serving counter" ]
      ~separation:Meta.Separated ()
end
