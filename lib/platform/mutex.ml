module Probe = Sync_trace.Probe
module Tier = Sync_prims.Tier
module Prims = Sync_prims.Prims
module Queuelock = Sync_prims.Queuelock

(* Adaptive (futex-style) mutex state: a single atomic int.
   0 = unlocked; 1 = locked, no waiter ever parked since last unlock;
   2 = locked, and some thread may be parked (or about to park) on [pc].
   Lock is a CAS 0->1; on failure a bounded randomized spin, then a
   park loop that pessimistically exchanges in 2 so the eventual
   unlocker knows a signal is owed. Unlock exchanges in 0 and signals
   only when the old state was 2 — the uncontended round trip is two
   atomic operations and never touches [pm]/[pc]. *)
type fast = {
  state : int Atomic.t;
  pm : Stdlib.Mutex.t;
  pc : Stdlib.Condition.t;
}

(* Hot-swappable (E27) mutex: one extra indirection through an atomic
   [cur] cell so a live site can be retiered ([swap_to]). The
   swap protocol is epoch-quiesced in the Epochrw sense — the swapper
   itself is the grace period:

     swap:    lock the old cell; publish the new cell to [cur];
              unlock the old cell.
     acquire: read [cur]; lock that cell; re-read [cur]; if it moved,
              unlock and retry on the new cell, else enter.

   Exclusion: a thread is in the critical section only while holding a
   cell it observed equal to [cur] *after* locking it. A swap away from
   that cell must first acquire it, which blocks until the holder
   leaves; until the swap publishes, every other acquirer routes to the
   same cell. Stragglers that locked the old cell after the swap see
   [cur] moved, back out, and retry — the old impl drains. Cells are
   never reused across swaps (each flip allocates a fresh cell), so the
   physical-equality re-check cannot be fooled by A-B-A. *)
type swap = {
  cur : Tier.cell Atomic.t;
  (* The cell the current critical-section owner actually locked.
     Written after a successful re-check, read at unlock; both happen
     with the cell lock held, and consecutive owners are ordered by the
     cell locks plus the [cur] swap chain, so plain mutable is safe. *)
  mutable held : Tier.cell;
}

(* Every real tier but the default is one closure cell; see mutex.mli
   for why [Sys] stays a direct constructor. *)
type impl =
  | Det of Detrt.mutex
  | Sys of Stdlib.Mutex.t
  | Cell of Tier.cell
  | Swap of swap

type t = {
  impl : impl;
  name : string;
  (* Start of the current holder's Hold, 0 when tracing is off: positive
     once its Acquire is written, negated while a zero-wait Acquire is
     still pending (written with the Hold by [close_hold]). Written only
     under the lock, so plain mutable is safe. Condition.wait resets it
     when the waiter re-acquires. *)
  mutable acquired_at : int;
}

(* How many rounds to spin before parking: backoff rounds on the fast
   tier, rounds of fixed probe counts on the default tier and in a
   real-thread [Condition.wait]. Backoff doubles its randomized spin
   bound each round, so this covers short critical sections without
   burning a core when the holder is descheduled. On a single-core
   machine the holder cannot run while we spin, so the only
   useful move is to park straight away (pthread mutexes make the same
   call: their adaptive spin is conditional on SMP). Yield-until-free
   is NOT an option here: with one thread per domain, [Thread.yield]
   skips the reschedule entirely (nobody else waits on the domain's
   master lock), so a yield loop degenerates into a hot spin.

   The round count is live-tunable ([set_spin_rounds]). The extra
   atomic load sits on the already-contended slow path only — the
   uncontended CAS never reads it. *)
let default_spin_rounds =
  if Domain.recommended_domain_count () > 1 then 8 else 0

let spin_rounds_cell = Atomic.make default_spin_rounds

let spin_rounds () = Atomic.get spin_rounds_cell

let set_spin_rounds n =
  if n < 0 then invalid_arg "Mutex.set_spin_rounds: negative round count";
  Atomic.set spin_rounds_cell n

(* A real-thread spin: up to [n] probes of [ready], each after a
   [Domain.cpu_relax]. Every [yield_every] probes the spinner offers
   the domain's runtime lock ([Thread.yield]), so it never holds off a
   thread of its own domain for long. That yield is one load when no
   other thread of the domain waits for the lock. When it takes longer
   than [handed_over_ns], another thread of this domain ran in between:
   what the spinner waits for (a holder or signaler sharing its domain,
   as in the daemon's pool) may need that lock too, and spinners taking
   turns on it would convoy, so the spin stops after one last probe.
   Every [os_yield_every] probes it also offers its CPU to the kernel
   ([sched_yield], about 0.5 us when no other thread is runnable
   there): a waker the scheduler put on the spinner's own CPU, as it
   does with two threads that keep waking each other when the box has
   little CPU to spare, runs then instead of after the whole spin. *)
let yield_every = 16

let os_yield_every = 64

let handed_over_ns = 1_000

external os_yield : unit -> unit = "sync_spin_yield" [@@noalloc]

let handed_over () =
  let t0 = Deadline.now_ns () in
  Thread.yield ();
  Deadline.now_ns () - t0 > handed_over_ns

let rec spin_from i n ready =
  if i >= n then false
  else begin
    Domain.cpu_relax ();
    if i land (yield_every - 1) <> yield_every - 1 then
      ready () || spin_from (i + 1) n ready
    else if handed_over () then ready ()
    else begin
      if i land (os_yield_every - 1) = os_yield_every - 1 then os_yield ();
      ready () || spin_from (i + 1) n ready
    end
  end

let spin n ready = spin_from 0 n ready

(* Probes per spin round of a contended default-tier acquire. *)
let lock_probes = 25

(* The default tier's acquire, also the swappable [`Sys] cell's: a try,
   then up to [lock_probes * spin_rounds ()] more in a [spin], then the
   blocking lock. A holder running on another core usually releases
   within the spin, so the handoff costs no futex sleep and wake. A
   second lock by the holder fails every try and then raises
   [Sys_error] in [Stdlib.Mutex.lock] (the stdlib mutex checks errors). *)
let sys_lock_slow m =
  let got () = Stdlib.Mutex.try_lock m in
  if not (spin (lock_probes * spin_rounds ()) got) then Stdlib.Mutex.lock m

let[@inline] sys_lock m =
  if not (Stdlib.Mutex.try_lock m) then sys_lock_slow m

let fast_lock_slow f =
  (* Bounded spin: cheap loads with exponential backoff between CAS
     retries, so brief contention never pays a futex round trip. *)
  let b = Backoff.create () in
  let rec spin n =
    n > 0
    && ((Atomic.get f.state = 0 && Atomic.compare_and_set f.state 0 1)
       ||
       (Backoff.once b;
        spin (n - 1)))
  in
  if not (spin (spin_rounds ())) then begin
    (* Park. From here on we advertise 2 (waiters present): whoever
       unlocks while the state is 2 must signal. The exchange both
       attempts the acquire and publishes the pessimistic state. *)
    let rec park () =
      if Atomic.exchange f.state 2 <> 0 then begin
        Stdlib.Mutex.lock f.pm;
        (* Re-check under [pm]: unlock signals under [pm], so either
           the state already left 2 (no sleep) or the signal cannot
           fire before we are actually waiting. Spurious wakeups just
           re-run the exchange. *)
        if Atomic.get f.state = 2 then Stdlib.Condition.wait f.pc f.pm;
        Stdlib.Mutex.unlock f.pm;
        park ()
      end
    in
    park ()
  end

let fast_cell () : Tier.cell =
  let f =
    { state = Atomic.make 0; pm = Stdlib.Mutex.create ();
      pc = Stdlib.Condition.create () }
  in
  { lock =
      (fun () ->
        if not (Atomic.compare_and_set f.state 0 1) then fast_lock_slow f);
    try_lock = (fun () -> Atomic.compare_and_set f.state 0 1);
    unlock =
      (fun () ->
        if Atomic.exchange f.state 0 = 2 then begin
          Stdlib.Mutex.lock f.pm;
          Stdlib.Condition.signal f.pc;
          Stdlib.Mutex.unlock f.pm
        end);
    tier = `Fast }

(* -- hot-swappable sites ------------------------------------------- *)

(* The retierable universe: the tiers a swappable site can move
   between. Det is a different world and Prim is a deliberate class
   restriction, so neither participates. *)
type tier = [ `Sys | `Fast | `Queue of Queuelock.kind ]

let tier_name = function
  | `Sys -> "sys"
  | `Fast -> "fast"
  | `Queue k -> "queue-" ^ Queuelock.kind_name k

let all_tiers : tier list =
  `Sys :: `Fast :: List.map (fun k -> `Queue k) Queuelock.all

(* Stable small integers for the Flip probe argument, so a timeline can
   decode which tier a site flipped to without string events: the
   position in [all_tiers]. *)
let tier_index t =
  let rec find i = function
    | x :: rest -> if x = t then i else find (i + 1) rest
    | [] -> invalid_arg "Mutex.tier_index"
  in
  find 0 all_tiers

let tier_of_index i = if i < 0 then None else List.nth_opt all_tiers i

let swap_cell : tier -> Tier.cell = function
  | `Sys ->
    let m = Stdlib.Mutex.create () in
    { lock = (fun () -> sys_lock m);
      try_lock = (fun () -> Stdlib.Mutex.try_lock m);
      unlock = (fun () -> Stdlib.Mutex.unlock m);
      tier = `Default }
  | `Fast -> fast_cell ()
  | `Queue k -> Queuelock.make_lock k

let cell_tier (c : Tier.cell) : tier =
  match c.tier with (`Fast | `Queue _) as t -> t | _ -> `Sys

let with_swappable f = Tier.with_tier `Adaptive f

let create ?(name = "mutex") () =
  if Detrt.active () then
    { impl = Det (Detrt.mutex ()); name; acquired_at = 0 }
  else begin
    let impl =
      match Tier.current () with
      | `Default -> Sys (Stdlib.Mutex.create ())
      | `Fast -> Cell (fast_cell ())
      | `Prim c -> Cell (Prims.make_lock c)
      | `Queue k -> Cell (Queuelock.make_lock k)
      | `Adaptive ->
        let c = swap_cell `Sys in
        Swap { cur = Atomic.make c; held = c }
    in
    { impl; name; acquired_at = 0 }
  end

(* Acquire through the indirection: lock the cell [cur] points at, then
   re-check [cur]. A swap can only publish while holding the cell it
   replaces, so observing [cur == c] with [c] locked proves no newer
   cell is (or can become) lockable until we release — see the protocol
   note on [swap]. The retry loop terminates because each iteration
   rides a distinct published swap, and swaps are caller-paced. *)
let rec swap_lock s =
  let c = Atomic.get s.cur in
  c.lock ();
  if Atomic.get s.cur == c then s.held <- c
  else begin
    c.unlock ();
    swap_lock s
  end

let rec swap_try s =
  let c = Atomic.get s.cur in
  if c.try_lock () then
    if Atomic.get s.cur == c then begin
      s.held <- c;
      true
    end
    else begin
      c.unlock ();
      swap_try s
    end
  else false

let current_tier t =
  match t.impl with
  | Swap s -> Some (cell_tier (Atomic.get s.cur))
  | _ -> None

let rec swap_to t tier =
  match t.impl with
  | Swap s ->
    let old = Atomic.get s.cur in
    if cell_tier old = tier then false
    else begin
      old.lock ();
      if Atomic.get s.cur != old then begin
        (* Lost a race with a concurrent swapper: back out and retry
           against the freshly published cell. *)
        old.unlock ();
        swap_to t tier
      end
      else begin
        (* We hold the live cell: every acquirer either waits on it or
           will fail its re-check. Publish the fresh cell — new
           arrivals route there immediately — then drain by release. *)
        Atomic.set s.cur (swap_cell tier);
        old.unlock ();
        Probe.instant Flip ~site:t.name ~arg:(tier_index tier);
        true
      end
    end
  | _ -> false

(* -- lock operations ----------------------------------------------- *)

(* The bookkeeping-free operations, one arm per representation. The
   public ones below wrap them in the probe bracket; Condition calls
   them directly to release and re-acquire around a park. *)
let[@inline] raw_lock t =
  match t.impl with
  | Sys m -> sys_lock m
  | Cell c -> c.lock ()
  | Swap s -> swap_lock s
  | Det m -> Detrt.mutex_lock m

let[@inline] raw_unlock t =
  match t.impl with
  | Sys m -> Stdlib.Mutex.unlock m
  | Cell c -> c.unlock ()
  | Swap s -> s.held.unlock ()
  | Det m -> Detrt.mutex_unlock m

let[@inline] raw_try t =
  match t.impl with
  | Sys m -> Stdlib.Mutex.try_lock m
  | Cell c -> c.try_lock ()
  | Swap s -> swap_try s
  | Det m -> Detrt.mutex_try_lock m

(* Traced acquire: the Hold starts where the Acquire ends, one clock read
   for both. On a real tier a first try that succeeds is a zero-wait
   Acquire; it stays pending in [acquired_at] (negated) and [close_hold]
   writes it together with its Hold. Only a contended acquire reads the
   clock on both sides of its wait, writing its Acquire at once. Det
   mutexes never take the extra try: it would be one more scheduling
   point for the explorer. *)
let traced_lock t =
  let t0 = Probe.now () in
  match t.impl with
  | (Sys _ | Cell _ | Swap _) when raw_try t -> t.acquired_at <- -t0
  | _ ->
    raw_lock t;
    t.acquired_at <- Probe.span_end Acquire ~site:t.name ~since:t0 ~arg:0

let close_hold t =
  let a = t.acquired_at in
  if a <> 0 then begin
    t.acquired_at <- 0;
    if a > 0 then Probe.span Hold ~site:t.name ~since:a ~arg:0
    else Probe.round_trip ~site:t.name ~t0:(-a)
  end

let lock t = if Probe.enabled () then traced_lock t else raw_lock t

let unlock t =
  close_hold t;
  raw_unlock t

let try_lock t =
  let ok = raw_try t in
  if ok then begin
    (* A successful try_lock is a zero-wait acquire; emit the span so
       profiled acquire counts include try-lock users. *)
    t.acquired_at <- -Probe.now ()
  end;
  ok

(* Timed attempts poll [try_lock]. Deterministic runs pause with
   [Detrt.relax], so every poll is a scheduling point the recorded
   schedule controls; real threads back off. Queue-tier attempts poll
   too: the queue locks' try never publishes a waiter node, so a
   timeout cannot strand a wakeup in the FIFO queue. *)
let try_lock_for t ~timeout_ns =
  let deadline = Deadline.after_ns timeout_ns in
  let pause =
    match t.impl with
    | Det _ -> Detrt.relax
    | Sys _ | Cell _ | Swap _ ->
      let b = Backoff.create () in
      fun () -> Backoff.once b
  in
  let rec loop () =
    try_lock t
    || ((not (Deadline.expired deadline))
       &&
       (pause ();
        loop ()))
  in
  loop ()

let protect m f =
  lock m;
  match f () with
  | v ->
    unlock m;
    v
  | exception e ->
    unlock m;
    raise e
