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
   [cur] cell so the adaptive controller can retier a live site. The
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
  (* Watchdog resource id; -1 when the watchdog was off at creation and
     always for Det mutexes, which carry their own id inside Detrt. *)
  rid : int;
  name : string;
  (* Timestamp of the last successful acquire by the current holder; 0
     when tracing is off. Written only under the lock, so plain mutable
     is safe. Condition.wait resets it when the waiter re-acquires. *)
  mutable acquired_at : int;
}

(* How many backoff rounds to spin before parking. Backoff doubles its
   randomized spin bound each round, so this covers short critical
   sections without burning a core when the holder is descheduled. On a
   single-core machine the holder cannot run while we spin, so the only
   useful move is to park straight away (pthread mutexes make the same
   call: their adaptive spin is conditional on SMP). Yield-until-free
   is NOT an option here: with one thread per domain, [Thread.yield]
   skips the reschedule entirely (nobody else waits on the domain's
   master lock), so a yield loop degenerates into a hot spin.

   E27 makes the round count live-tunable: the adaptive controller
   retunes it from observed wait distributions. The extra atomic load
   sits on the already-contended slow path only — the uncontended CAS
   never reads it. *)
let default_spin_rounds =
  if Domain.recommended_domain_count () > 1 then 8 else 0

let spin_rounds_cell = Atomic.make default_spin_rounds

let spin_rounds () = Atomic.get spin_rounds_cell

let set_spin_rounds n =
  if n < 0 then invalid_arg "Mutex.set_spin_rounds: negative round count";
  Atomic.set spin_rounds_cell n

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
    { lock = (fun () -> Stdlib.Mutex.lock m);
      try_lock = (fun () -> Stdlib.Mutex.try_lock m);
      unlock = (fun () -> Stdlib.Mutex.unlock m);
      tier = `Default }
  | `Fast -> fast_cell ()
  | `Queue k -> Queuelock.make_lock k

let cell_tier (c : Tier.cell) : tier =
  match c.tier with (`Fast | `Queue _) as t -> t | _ -> `Sys

(* The site registry the adaptive controller enumerates: entering a
   [with_swappable] scope starts an empty registry, so a controller
   only ever sees the sites of its own run. *)
let sites_lock = Stdlib.Mutex.create ()

let sites : t list ref = ref []

let swap_sites () =
  Stdlib.Mutex.lock sites_lock;
  let s = !sites in
  Stdlib.Mutex.unlock sites_lock;
  s

let with_swappable f =
  Stdlib.Mutex.lock sites_lock;
  (* Clear on entry, keep on exit: the controller typically starts
     after the build scope closes (Target.create wraps only the
     build), and must still be able to enumerate the run's sites. The
     next scope clears the slate. *)
  sites := [];
  Stdlib.Mutex.unlock sites_lock;
  Tier.with_tier `Adaptive f

let create ?(name = "mutex") () =
  if Detrt.active () then
    { impl = Det (Detrt.mutex ()); rid = -1; name; acquired_at = 0 }
  else begin
    let impl =
      match Tier.current () with
      | `Default | `Prim Native -> Sys (Stdlib.Mutex.create ())
      | `Fast -> Cell (fast_cell ())
      | `Prim c -> Cell (Prims.make_lock c)
      | `Queue k -> Cell (Queuelock.make_lock k)
      | `Adaptive ->
        let c = swap_cell `Sys in
        Swap { cur = Atomic.make c; held = c }
    in
    let t =
      { impl;
        rid =
          (if Deadlock.enabled () then Deadlock.register ~kind:"mutex" ()
           else -1);
        name;
        acquired_at = 0 }
    in
    (match impl with
    | Swap _ ->
      Stdlib.Mutex.lock sites_lock;
      sites := t :: !sites;
      Stdlib.Mutex.unlock sites_lock
    | _ -> ());
    t
  end

(* Acquire through the indirection: lock the cell [cur] points at, then
   re-check [cur]. A swap can only publish while holding the cell it
   replaces, so observing [cur == c] with [c] locked proves no newer
   cell is (or can become) lockable until we release — see the protocol
   note on [swap]. The retry loop terminates because each iteration
   rides a distinct published swap, and swaps are controller-paced. *)
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
   public ones below wrap them in the single watchdog and probe
   bracket; Condition calls them directly to release and re-acquire
   around a park. *)
let[@inline] raw_lock t =
  match t.impl with
  | Sys m -> Stdlib.Mutex.lock m
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

(* A zero-wait Acquire at [n] (from [Probe.now]), and the Hold it opens
   at the same instant. *)
let acquired_at_once t n =
  Probe.record Acquire ~site:t.name ~t0:n ~dur:0 ~arg:0;
  t.acquired_at <- n

(* Traced acquire: the Hold starts where the Acquire ends, one clock read
   for both. On a real tier a first try that succeeds is a zero-wait
   Acquire; only a contended acquire reads the clock on both sides of its
   wait. Det mutexes never take the extra try: it would be one more
   scheduling point for the explorer. *)
let traced_lock t =
  let t0 = Probe.now () in
  match t.impl with
  | (Sys _ | Cell _ | Swap _) when raw_try t -> acquired_at_once t t0
  | _ ->
    raw_lock t;
    t.acquired_at <- Probe.span_end Acquire ~site:t.name ~since:t0 ~arg:0

let lock t =
  let watched = t.rid >= 0 && Deadlock.enabled () in
  if watched then Deadlock.blocked t.rid;
  if Probe.enabled () then traced_lock t else raw_lock t;
  if watched then Deadlock.acquired t.rid

let unlock t =
  if t.acquired_at <> 0 then begin
    Probe.span Hold ~site:t.name ~since:t.acquired_at ~arg:0;
    t.acquired_at <- 0
  end;
  if t.rid >= 0 && Deadlock.enabled () then Deadlock.released t.rid;
  raw_unlock t

let try_lock t =
  let ok = raw_try t in
  if ok then begin
    if t.rid >= 0 && Deadlock.enabled () then Deadlock.acquired t.rid;
    (* A successful try_lock is a zero-wait acquire; emit the span so
       profiled acquire counts include try-lock users. *)
    acquired_at_once t (Probe.now ())
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
