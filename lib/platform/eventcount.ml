module Probe = Sync_trace.Probe

module Eventcount = struct
  type t = {
    lock : Mutex.t;
    moved : Condition.t;
    mutable count : int;
    mutable blocked : int;
  }

  let create ?(initial = 0) () =
    { lock = Mutex.create ~name:"evc.lock" (); moved = Condition.create ();
      count = initial; blocked = 0 }

  let read t =
    Mutex.lock t.lock;
    let n = t.count in
    Mutex.unlock t.lock;
    n

  let advance t =
    Mutex.lock t.lock;
    t.count <- t.count + 1;
    if Probe.enabled () && t.blocked > 0 then
      Probe.instant Signal ~site:"evc" ~arg:t.blocked;
    Condition.broadcast t.moved;
    Mutex.unlock t.lock

  let advance_to t n =
    Mutex.lock t.lock;
    if n > t.count then begin
      t.count <- n;
      if Probe.enabled () && t.blocked > 0 then
        Probe.instant Signal ~site:"evc" ~arg:t.blocked;
      Condition.broadcast t.moved
    end;
    Mutex.unlock t.lock

  let await t n =
    Mutex.lock t.lock;
    t.blocked <- t.blocked + 1;
    if t.count < n then begin
      let t0 = Probe.now () in
      (* A wakeup short of [n]: a broadcast advanced the count, but not
         far enough for us. *)
      Condition.await t.moved t.lock ~site:"evc" (fun () -> t.count >= n);
      Probe.span Wait ~site:"evc" ~since:t0 ~arg:t.blocked
    end;
    t.blocked <- t.blocked - 1;
    Mutex.unlock t.lock

  let waiters t =
    Mutex.lock t.lock;
    let n = t.blocked in
    Mutex.unlock t.lock;
    n
end

module Sequencer = struct
  type t = { lock : Mutex.t; mutable next : int }

  let create () = { lock = Mutex.create ~name:"seq.lock" (); next = 0 }

  let ticket t =
    Mutex.lock t.lock;
    let n = t.next in
    t.next <- n + 1;
    Mutex.unlock t.lock;
    n
end
