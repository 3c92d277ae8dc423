(** The E27 alarm clock at scale: a {!Sync_platform.Timerwheel} behind
    one platform mutex and one condition.

    The classic solutions (monitor priority wait, semaphore schedules)
    pay O(log n) or worse per tick or per sleeper; the wheel's tick
    cost is O(1) and independent of the number of pending alarms, so
    this solution holds millions of sleepers without the clock driver
    falling behind. [tick] fires the due bucket, stamping each
    sleeper's flag, and broadcasts once; sleepers re-check their own
    flag (Mesa style). The mutex is a named site ("alarm-wheel.lock"),
    so traces and profiles attribute its waits and holds.

    Carried as an alarm-clock solution (mechanism "wheel") the same
    way the epoch rw lock rides readers-writers: not one of the
    paper's mechanisms, but registry-resolvable so conformance and the
    load grid drive it through standard plumbing. *)

open Sync_platform
open Sync_taxonomy

type t = {
  m : Mutex.t;
  fired : Condition.t;
  wheel : bool ref Timerwheel.t;
}

let mechanism = "wheel"

let create () =
  { m = Mutex.create ~name:"alarm-wheel.lock" ();
    fired = Condition.create ();
    (* 3 x 6-bit levels: 262144-tick horizon, tiny rings — plenty for
       virtual-clock conformance runs and load drives alike. *)
    wheel = Timerwheel.create ~levels:3 ~slot_bits:6 () }

let wakeme t ~pid n =
  ignore pid;
  if n > 0 then begin
    Mutex.lock t.m;
    let woke = ref false in
    ignore (Timerwheel.add t.wheel ~delay:n woke);
    while not !woke do
      Condition.wait t.fired t.m
    done;
    Mutex.unlock t.m
  end

let tick t =
  Mutex.lock t.m;
  let fired = Timerwheel.tick t.wheel (fun _deadline woke -> woke := true) in
  if fired > 0 then Condition.broadcast t.fired;
  Mutex.unlock t.m

let now t = Mutex.protect t.m (fun () -> Timerwheel.now t.wheel)

let stop _ = ()

let meta =
  Meta.make ~mechanism ~problem:"alarm-clock"
    ~fragments:
      [ ("alarm-deadline",
         [ "wheel.add(delay=n)"; "while not woke"; "wait(fired)" ]);
        ("alarm-order",
         [ "bucket(deadline)"; "tick fires due bucket only";
           "broadcast+recheck" ]) ]
    ~info_access:
      [ (Info.Parameters, Meta.Direct); (Info.Local_state, Meta.Direct) ]
    ~aux_state:[ "hierarchical timer wheel"; "per-sleeper woke flag" ]
    ~separation:Meta.Separated ()
