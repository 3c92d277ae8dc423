open Sync_platform
module Probe = Sync_trace.Probe

let abort_policy : Fault.abort_policy = `Propagate

type 'a t = {
  lock : Mutex.t;
  changed : Condition.t;
  state : 'a;
  mutable blocked : int;
}

let create state =
  { lock = Mutex.create ~name:"ccr.lock" (); changed = Condition.create ();
    state; blocked = 0 }

(* The region's Hold is the lock's last hold — from the (re)acquire
   after any guard wait to the release, guard evaluation and broadcast
   included — so it copies that event's timestamps from the ring. *)
let region ?when_ t f =
  let mark = Probe.mark () in
  let v =
    Mutex.protect t.lock (fun () ->
        (match when_ with
        | None -> ()
        | Some guard -> (
          Fault.site "ccr.pre-wait";
          t.blocked <- t.blocked + 1;
          match
            if not (guard t.state) then begin
              let t0 = Probe.now () in
              (* A wakeup with the guard still false: a broadcast for
                 another region's change. *)
              Condition.await t.changed t.lock ~site:"ccr.guard" (fun () ->
                  guard t.state);
              Probe.span Wait ~site:"ccr.guard" ~since:t0 ~arg:t.blocked
            end
          with
          | () -> t.blocked <- t.blocked - 1
          | exception e ->
            (* A raising guard (or injected abort while blocked) must not
               leave the blocked count over-stated. *)
            t.blocked <- t.blocked - 1;
            raise e));
        match f t.state with
        | v ->
          (* Any region body may have changed the state: re-test every
             guard, also when the body aborted partway through a change. *)
          if Probe.enabled () && t.blocked > 0 then
            Probe.instant Signal ~site:"ccr.guard" ~arg:t.blocked;
          Condition.broadcast t.changed;
          v
        | exception e ->
          Condition.broadcast t.changed;
          raise e)
  in
  Probe.span_to_latest Hold ~site:"ccr.region" ~since:(Probe.latest_start mark)
    ~mark ~arg:0;
  v

let await t p = region ~when_:p t ignore

let waiters t = Mutex.protect t.lock (fun () -> t.blocked)
