module Probe = Sync_trace.Probe

(* A condition pairs with whatever mutex the caller hands to [wait]. A
   real-thread wait either parks in the stdlib condvar [sys], which
   needs a Sys mutex to release atomically, or spins and then parks in
   a private lot [pk_m]/[pk_c] keyed on the wakeup [epoch], which works
   under every real mutex. Sys waits take [sys] only when there is no
   spin budget (a single core): that path is the stdlib's own. The
   dispatch happens per wait, on the mutex's impl and the live budget,
   because conditions are routinely created at runtime (Waitq allocates
   one per wait) and must work with any tier.

   Lot protocol: the waiter counts itself in [waiting] and notes
   [epoch] while it still holds the user mutex, then releases it.
   A signaler whose state change the waiter did not see took the user
   mutex after that release, so it sees [waiting > 0] and bumps
   [epoch]. The waiter spins until [epoch] moves or its budget runs
   out, then parks: under [pk_m] it counts itself in [parked] and
   sleeps while [epoch] has not moved. The signaler bumps [epoch]
   before it reads [parked], and the waiter counts itself in [parked]
   before it re-reads [epoch], so at least one sees the other; a
   signaler that sees [parked > 0] signals under [pk_m], which the
   waiter holds from its re-read until it sleeps. A signal with no
   waiter costs one load past the stdlib signal. Wakeups are
   level-triggered on [epoch], so one signal ends every spin and can
   wake more than one parked waiter spuriously — allowed by the Mesa
   contract (every caller re-checks its predicate). *)
type t =
  | Det of Detrt.cond
  | Real of real

and real = {
  sys : Stdlib.Condition.t;
  pk_m : Stdlib.Mutex.t;
  pk_c : Stdlib.Condition.t;
  epoch : int Atomic.t;
  waiting : int Atomic.t; (* lot waiters, spinning or parked *)
  parked : int Atomic.t; (* lot waiters parked or about to park *)
}

let create () =
  if Detrt.active () then Det (Detrt.cond ())
  else
    Real
      { sys = Stdlib.Condition.create ();
        pk_m = Stdlib.Mutex.create ();
        pk_c = Stdlib.Condition.create ();
        epoch = Atomic.make 0;
        waiting = Atomic.make 0;
        parked = Atomic.make 0 }

(* Waiting releases the mutex internally, so the holder's Hold span must
   close before it ([Mutex.close_hold]: park time is wait time, not hold
   time) and restart when the waiter re-acquires. *)
let reopen_hold (m : Mutex.t) =
  if Probe.enabled () then m.Mutex.acquired_at <- Probe.now ()

let worlds_mismatch () =
  failwith
    "Condition.wait: condition and mutex from different worlds (one \
     deterministic, one system); create both inside or both outside the \
     deterministic run"

(* Probes per spin round of a lot wait. *)
let spin_probes = 64

(* Entered holding [m]; returns holding it again. A swappable site
   re-acquires through its indirection, so a waiter parked across a tier
   flip wakes up into the new tier. *)
let lot_wait r (m : Mutex.t) budget =
  Atomic.incr r.waiting;
  let e = Atomic.get r.epoch in
  Mutex.raw_unlock m;
  ignore (Mutex.spin budget (fun () -> Atomic.get r.epoch <> e));
  if Atomic.get r.epoch = e then begin
    Stdlib.Mutex.lock r.pk_m;
    Atomic.incr r.parked;
    while Atomic.get r.epoch = e do
      Stdlib.Condition.wait r.pk_c r.pk_m
    done;
    Atomic.decr r.parked;
    Stdlib.Mutex.unlock r.pk_m
  end;
  Atomic.decr r.waiting;
  Mutex.raw_lock m

let wait c (m : Mutex.t) =
  Mutex.close_hold m;
  (match (c, m.Mutex.impl) with
  | Real r, Mutex.Sys sm ->
    let budget = spin_probes * Mutex.spin_rounds () in
    if budget = 0 then Stdlib.Condition.wait r.sys sm else lot_wait r m budget
  | Real r, (Mutex.Cell _ | Mutex.Swap _) ->
    lot_wait r m (spin_probes * Mutex.spin_rounds ())
  | Det c, Mutex.Det dm -> Detrt.cond_wait c dm
  | Real _, Mutex.Det _ | Det _, (Mutex.Sys _ | Mutex.Cell _ | Mutex.Swap _) ->
    worlds_mismatch ());
  reopen_hold m

let await c m ~site until =
  if not (until ()) then begin
    wait c m;
    while not (until ()) do
      Probe.instant Spurious ~site ~arg:0;
      wait c m
    done
  end

(* Timed wait by bounded polling: stdlib condition variables have no
   timed wait, so [wait_for] releases the mutex, lets someone else run,
   and reacquires — a spurious wakeup per polling step, absorbed by the
   caller's predicate loop exactly like any other spurious wakeup. The
   condition variable itself is not consulted; correctness (never miss a
   state change) follows from re-checking the predicate with the mutex
   held on every iteration. *)
let wait_for c (m : Mutex.t) ~deadline =
  ignore c;
  if Deadline.expired deadline then false
  else begin
    Mutex.close_hold m;
    Mutex.raw_unlock m;
    (match m.Mutex.impl with
    | Mutex.Det _ -> Detrt.yield ()
    | Mutex.Sys _ | Mutex.Cell _ | Mutex.Swap _ -> Thread.yield ());
    Mutex.raw_lock m;
    reopen_hold m;
    true
  end

(* [wake] signals or broadcasts the lot's parked waiters. *)
let[@inline] lot_wake r wake =
  if Atomic.get r.waiting > 0 then begin
    Atomic.incr r.epoch;
    if Atomic.get r.parked > 0 then begin
      Stdlib.Mutex.lock r.pk_m;
      wake r.pk_c;
      Stdlib.Mutex.unlock r.pk_m
    end
  end

let signal = function
  | Det c -> Detrt.cond_signal c
  | Real r ->
    Stdlib.Condition.signal r.sys;
    lot_wake r Stdlib.Condition.signal

let broadcast = function
  | Det c -> Detrt.cond_broadcast c
  | Real r ->
    Stdlib.Condition.broadcast r.sys;
    lot_wake r Stdlib.Condition.broadcast
