module Probe = Sync_trace.Probe
module Prims = Sync_prims.Prims

type fairness = [ `Strong | `Weak ]

module Counting = struct
  type queued = {
    mutex : Mutex.t;
    fairness : fairness;
    (* Strong: selective-wakeup queue; each waiter is woken exactly once and
       its P is thereby granted (the value was consumed by the waker). *)
    queue : unit Waitq.t;
    (* Weak: ordinary condition broadcast; woken waiters race to re-check. *)
    cond : Condition.t;
    mutable value : int;
    mutable weak_waiters : int;
  }

  (* Fast weak tier (E22): the value lives in an atomic that is never
     negative. P consumes a unit with a CAS-retry that only runs while
     the observed value is positive; V publishes with one fetch-and-add
     and touches [flock] only when a waiter is actually parked. The
     textbook "go negative and owe a wakeup" benaphore is deliberately
     avoided: with timed and abortable Ps, a debtor repaying its debt
     while a V's wakeup ticket is in flight can double-count a unit.
     Keeping the value non-negative makes every transition a plain
     consume or produce, so conservation holds under any abort.

     Strong (FCFS) mode never uses this tier: arrival-order grants need
     the queue, and a CAS fast path is exactly a barging path. *)
  type fast = {
    fvalue : int Atomic.t; (* current value, >= 0 *)
    fwaiters : int Atomic.t; (* parked or about-to-park slow-path Ps *)
    flock : Stdlib.Mutex.t;
    fcond : Stdlib.Condition.t;
  }

  (* Class-restricted tier (E25): the whole semaphore protocol comes
     from [Sync_prims], built on the selected atomic class alone. RW ×
     [`Strong] is rejected there with a typed {!Prims.Unsupported} —
     arrival-order grants need an order-assigning RMW — and the
     hierarchy axis records that as a result, not a crash. *)
  type t = Queued of queued | Fast of fast | Prim of Prims.sem

  let create ?(fairness = `Strong) n =
    if n < 0 then invalid_arg "Semaphore.Counting.create: negative value";
    let prim c = Prim (Prims.make_sem c ~fairness n) in
    match if Detrt.active () then `Default else Sync_prims.Tier.current () with
    | `Fast when fairness = `Weak ->
      Fast
        { fvalue = Atomic.make n;
          fwaiters = Atomic.make 0;
          flock = Stdlib.Mutex.create ();
          fcond = Stdlib.Condition.create () }
    | `Prim c -> prim c
    (* Queue tier (E23): semaphores map onto the FAA-class
       constructions — the FIFO ticket semaphore for [`Strong],
       value-netting for [`Weak] — so the tier's ticket discipline
       covers semaphores too, not just mutexes. *)
    | `Queue _ -> prim Prims.FAA
    | `Default | `Fast | `Adaptive ->
      Queued
        { mutex = Mutex.create ~name:"sem.lock" (); fairness;
          queue = Waitq.create ~name:"sem.q" (); cond = Condition.create ();
          value = n; weak_waiters = 0 }

  (* ---------------- queued (default) tier ---------------- *)

  (* A P abort after the wake was consumed would leak the unit of value the
     waker handed us; re-route it to the next waiter (or back to the
     counter) before propagating. *)
  let redonate t () =
    if not (Waitq.wake_first t.queue) then t.value <- t.value + 1

  (* Weak P's wait for a unit, under the semaphore's mutex. *)
  let weak_await t =
    if t.value = 0 then begin
      let t0 = Probe.now () in
      (* A wakeup that finds no unit lost a broadcast race to another
         woken waiter. *)
      Condition.await t.cond t.mutex ~site:"sem.cond" (fun () -> t.value > 0);
      Probe.span Wait ~site:"sem.cond" ~since:t0 ~arg:t.weak_waiters
    end

  let queued_p t =
    Mutex.protect t.mutex (fun () ->
        Fault.site "semaphore.pre-wait";
        match t.fairness with
        | `Strong ->
          (* A newcomer must not overtake parked waiters even if value > 0:
             strong semantics grant strictly in arrival order. *)
          if t.value > 0 && Waitq.is_empty t.queue then t.value <- t.value - 1
          else Waitq.wait t.queue ~lock:t.mutex () ~on_abort:(redonate t)
        | `Weak -> (
          t.weak_waiters <- t.weak_waiters + 1;
          match weak_await t with
          | () ->
            t.weak_waiters <- t.weak_waiters - 1;
            t.value <- t.value - 1
          | exception e ->
            t.weak_waiters <- t.weak_waiters - 1;
            raise e))

  let queued_acquire_for t ~deadline =
    Mutex.protect t.mutex (fun () ->
        Fault.site "semaphore.pre-wait";
        match t.fairness with
        | `Strong ->
          if t.value > 0 && Waitq.is_empty t.queue then begin
            t.value <- t.value - 1;
            true
          end
          else
            Waitq.wait_for t.queue ~lock:t.mutex ~deadline ()
              ~on_abort:(redonate t)
        | `Weak -> (
          t.weak_waiters <- t.weak_waiters + 1;
          match
            Condition.await_for t.cond t.mutex ~deadline (fun () ->
                t.value > 0)
          with
          | got ->
            t.weak_waiters <- t.weak_waiters - 1;
            if got then t.value <- t.value - 1;
            got
          | exception e ->
            t.weak_waiters <- t.weak_waiters - 1;
            raise e))

  let queued_v t =
    Mutex.protect t.mutex (fun () ->
        match t.fairness with
        | `Strong ->
          (* Hand the unit of value directly to the oldest waiter if any. *)
          if not (Waitq.wake_first t.queue) then t.value <- t.value + 1
        | `Weak ->
          t.value <- t.value + 1;
          if Probe.enabled () then
            Probe.instant Signal ~site:"sem.cond" ~arg:t.weak_waiters;
          Condition.signal t.cond)

  (* Batched V: publish [n] units under one lock acquisition and one
     wake pass, instead of n lock round-trips each rescanning the
     queue. Strong mode hands units to the n oldest waiters in one
     Waitq.wake_n sweep; weak mode bumps the value once and issues a
     single broadcast (n signals would wake n waiters anyway; the
     broadcast is the level-triggered equivalent). *)
  let queued_v_n t n =
    Mutex.protect t.mutex (fun () ->
        match t.fairness with
        | `Strong ->
          let woken = Waitq.wake_n t.queue n in
          if woken < n then t.value <- t.value + (n - woken)
        | `Weak ->
          t.value <- t.value + n;
          if Probe.enabled () then
            Probe.instant Signal ~site:"sem.cond" ~arg:t.weak_waiters;
          Condition.broadcast t.cond)

  let queued_try_p t =
    Mutex.protect t.mutex (fun () ->
        let ok =
          match t.fairness with
          | `Strong -> t.value > 0 && Waitq.is_empty t.queue
          | `Weak -> t.value > 0
        in
        if ok then t.value <- t.value - 1;
        ok)

  (* ---------------- fast weak tier ---------------- *)

  (* Consume one unit iff the value is positive; CAS failures (another
     P or V moved the value) retry with backoff as long as a unit
     remains visible. Returns false only after observing value = 0. *)
  let rec fast_try_dec f b =
    let v = Atomic.get f.fvalue in
    v > 0
    && (Atomic.compare_and_set f.fvalue v (v - 1)
       ||
       (Backoff.once b;
        fast_try_dec f b))

  let fast_p f =
    Fault.site "semaphore.pre-wait";
    let b = Backoff.create () in
    if not (fast_try_dec f b) then begin
      (* Value exhausted: park. The waiter count is bumped under
         [flock] before the final re-check, so a V that makes the value
         positive after our last failed look must observe
         [fwaiters > 0] and take the signal path (SC atomics give the
         usual "either V sees the waiter or the waiter sees the value"
         disjunction). *)
      let t0 = Probe.now () in
      Stdlib.Mutex.lock f.flock;
      Atomic.incr f.fwaiters;
      let rec park first =
        if not (fast_try_dec f b) then begin
          if not first then
            (* Signal race lost: a barging fast-path P took the unit. *)
            Probe.instant Spurious ~site:"sem.fast" ~arg:0;
          Stdlib.Condition.wait f.fcond f.flock;
          park false
        end
      in
      (match park true with
      | () -> ()
      | exception e ->
        Atomic.decr f.fwaiters;
        Stdlib.Mutex.unlock f.flock;
        raise e);
      Atomic.decr f.fwaiters;
      Stdlib.Mutex.unlock f.flock;
      if t0 <> 0 then
        Probe.span Wait ~site:"sem.fast" ~since:t0 ~arg:(Atomic.get f.fwaiters)
    end

  let fast_v_units f n =
    ignore (Atomic.fetch_and_add f.fvalue n);
    if Probe.enabled () then
      Probe.instant Signal ~site:"sem.fast" ~arg:(Atomic.get f.fwaiters);
    if Atomic.get f.fwaiters > 0 then begin
      Stdlib.Mutex.lock f.flock;
      if n = 1 then Stdlib.Condition.signal f.fcond
      else Stdlib.Condition.broadcast f.fcond;
      Stdlib.Mutex.unlock f.flock
    end

  (* Timed P on the fast tier polls with backoff instead of parking:
     stdlib condition variables cannot time out, and the default tier's
     timed weak wait is the same unlock/yield/relock polling one layer
     down (Condition.wait_for). The deadline bounds the loop. *)
  let fast_acquire_for f ~deadline =
    Fault.site "semaphore.pre-wait";
    let b = Backoff.create () in
    let rec loop () =
      if fast_try_dec f b then true
      else if Deadline.expired deadline then false
      else begin
        Backoff.once b;
        loop ()
      end
    in
    loop ()

  (* ---------------- class-restricted (E25) tier ---------------- *)

  (* Try-first so an uncontended P records no span; the blocking path
     brackets the prim semaphore's own wait (spin/park discipline lives
     inside [Sync_prims]) with a probe span under the "sem.prim" site. *)
  let prim_p p =
    Fault.site "semaphore.pre-wait";
    if not (p.Prims.sm_try ()) then begin
      let t0 = Probe.now () in
      p.Prims.sm_p ();
      if t0 <> 0 then
        Probe.span Wait ~site:"sem.prim" ~since:t0 ~arg:(p.Prims.sm_waiters ())
    end

  let prim_acquire_for p ~deadline =
    Fault.site "semaphore.pre-wait";
    p.Prims.sm_try ()
    || p.Prims.sm_p_poll (fun () -> Deadline.expired deadline)

  let prim_v p n =
    p.Prims.sm_v n;
    if Probe.enabled () then
      Probe.instant Signal ~site:"sem.prim" ~arg:(p.Prims.sm_waiters ())

  (* ---------------- dispatch ---------------- *)

  let p = function
    | Queued q -> queued_p q
    | Fast f -> fast_p f
    | Prim pr -> prim_p pr

  let acquire_for t ~timeout_ns =
    let deadline = Deadline.after_ns timeout_ns in
    match t with
    | Queued q -> queued_acquire_for q ~deadline
    | Fast f -> fast_acquire_for f ~deadline
    | Prim pr -> prim_acquire_for pr ~deadline

  let v = function
    | Queued q -> queued_v q
    | Fast f -> fast_v_units f 1
    | Prim pr -> prim_v pr 1

  let v_n t n =
    if n < 0 then invalid_arg "Semaphore.Counting.v_n: negative count";
    if n > 0 then
      match t with
      | Queued q -> queued_v_n q n
      | Fast f -> fast_v_units f n
      | Prim pr -> prim_v pr n

  let try_p = function
    | Queued q -> queued_try_p q
    | Fast f -> fast_try_dec f (Backoff.create ())
    | Prim pr -> pr.Prims.sm_try ()

  let value = function
    | Queued q -> Mutex.protect q.mutex (fun () -> q.value)
    | Fast f -> Atomic.get f.fvalue
    | Prim pr -> pr.Prims.sm_value ()

  let waiters = function
    | Queued q ->
      Mutex.protect q.mutex (fun () ->
          match q.fairness with
          | `Strong -> Waitq.length q.queue
          | `Weak -> q.weak_waiters)
    | Fast f -> Atomic.get f.fwaiters
    | Prim pr -> pr.Prims.sm_waiters ()
end

(* Binary semaphores have no class-restricted tier of their own: they
   are built on [Mutex] + [Waitq], so under an E25 class selection the
   guard mutex itself is the class-restricted lock and the queueing
   layer rides on it unchanged. *)
module Binary = struct
  type t = { mutex : Mutex.t; queue : unit Waitq.t; mutable value : int }

  let create open_ =
    { mutex = Mutex.create ~name:"binsem.lock" ();
      queue = Waitq.create ~name:"binsem.q" ();
      value = (if open_ then 1 else 0) }

  let redonate t () = if not (Waitq.wake_first t.queue) then t.value <- 1

  let p t =
    Mutex.protect t.mutex (fun () ->
        Fault.site "semaphore.pre-wait";
        if t.value = 1 && Waitq.is_empty t.queue then t.value <- 0
        else Waitq.wait t.queue ~lock:t.mutex () ~on_abort:(redonate t))

  let acquire_for t ~timeout_ns =
    let deadline = Deadline.after_ns timeout_ns in
    Mutex.protect t.mutex (fun () ->
        Fault.site "semaphore.pre-wait";
        if t.value = 1 && Waitq.is_empty t.queue then begin
          t.value <- 0;
          true
        end
        else
          Waitq.wait_for t.queue ~lock:t.mutex ~deadline ()
            ~on_abort:(redonate t))

  let v t =
    Mutex.protect t.mutex (fun () ->
        if t.value = 1 then invalid_arg "Semaphore.Binary.v: already open";
        if not (Waitq.wake_first t.queue) then t.value <- 1)

  let value t = Mutex.protect t.mutex (fun () -> t.value)
end
