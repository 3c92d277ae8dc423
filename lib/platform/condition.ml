module Probe = Sync_trace.Probe

(* A condition pairs with whatever mutex the caller hands to [wait], and
   only a Sys mutex can use [Stdlib.Condition.wait] — that needs a
   stdlib mutex to atomically release. So every real-thread condition
   carries two faces: the plain stdlib condvar [sys] for waits under
   Sys mutexes, and a private park lot [pk_m]/[pk_c]/[seq] for waits
   under every other real mutex (cells and swappable sites). The
   dispatch happens per wait, on the mutex's impl, because conditions
   are routinely created at runtime (Waitq allocates one per wait) and
   must work with any tier.

   Park protocol: the waiter takes [pk_m], snapshots [seq], bumps
   [parked], and only then releases the user mutex; a signaler that ran
   after the user mutex was released must therefore observe
   [parked > 0], and its seq bump under [pk_m] cannot fire before the
   waiter is actually waiting. Wakeups are level-triggered on [seq]
   having moved, so a signal can wake more than one parked waiter
   spuriously — allowed by the Mesa contract (every caller re-checks
   its predicate). *)
type t =
  | Det of Detrt.cond
  | Real of real

and real = {
  sys : Stdlib.Condition.t;
  pk_m : Stdlib.Mutex.t;
  pk_c : Stdlib.Condition.t;
  mutable seq : int; (* guarded by pk_m *)
  parked : int Atomic.t; (* fast-mutex waiters parked or about to park *)
}

let create () =
  if Detrt.active () then Det (Detrt.cond ())
  else
    Real
      { sys = Stdlib.Condition.create ();
        pk_m = Stdlib.Mutex.create ();
        pk_c = Stdlib.Condition.create ();
        seq = 0;
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

let wait c (m : Mutex.t) =
  Mutex.close_hold m;
  (match (c, m.Mutex.impl) with
  | Real r, Mutex.Sys sm -> Stdlib.Condition.wait r.sys sm
  | Real r, (Mutex.Cell _ | Mutex.Swap _) ->
    (* A swappable site re-acquires through its indirection, so a
       waiter parked across a tier flip wakes up into the new tier. *)
    Stdlib.Mutex.lock r.pk_m;
    let s = r.seq in
    Atomic.incr r.parked;
    Mutex.raw_unlock m;
    while r.seq = s do
      Stdlib.Condition.wait r.pk_c r.pk_m
    done;
    Atomic.decr r.parked;
    Stdlib.Mutex.unlock r.pk_m;
    Mutex.raw_lock m
  | Det c, Mutex.Det dm -> Detrt.cond_wait c dm
  | Real _, Mutex.Det _ | Det _, (Mutex.Sys _ | Mutex.Cell _ | Mutex.Swap _) ->
    worlds_mismatch ());
  reopen_hold m

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

let signal = function
  | Det c -> Detrt.cond_signal c
  | Real r ->
    Stdlib.Condition.signal r.sys;
    if Atomic.get r.parked > 0 then begin
      Stdlib.Mutex.lock r.pk_m;
      r.seq <- r.seq + 1;
      Stdlib.Condition.signal r.pk_c;
      Stdlib.Mutex.unlock r.pk_m
    end

let broadcast = function
  | Det c -> Detrt.cond_broadcast c
  | Real r ->
    Stdlib.Condition.broadcast r.sys;
    if Atomic.get r.parked > 0 then begin
      Stdlib.Mutex.lock r.pk_m;
      r.seq <- r.seq + 1;
      Stdlib.Condition.broadcast r.pk_c;
      Stdlib.Mutex.unlock r.pk_m
    end
