(** Mutual-exclusion locks, deterministic-run aware.

    This module shadows the stdlib [Mutex] inside [Sync_platform] (and in
    every file that opens it); mechanism code is written against the
    ordinary stdlib signature. A mutex is built once, at {!create}:
    inside a {!Detrt} run it is always a virtual-task mutex the
    deterministic scheduler controls ([Det]); otherwise it takes the
    tier {!Sync_prims.Tier.current} names. [`Default] and
    [`Prim Native] give a stdlib mutex ([Sys]); [`Fast] (E22), [`Prim c]
    (E25) and [`Queue k] (E23) give that tier's lock cell ([Cell]);
    [`Adaptive] (E27) gives a hot-swappable site ([Swap]). The contract
    is identical on every tier; only the cost profile changes.

    [lock], [unlock] and [try_lock] wrap one bookkeeping-free operation
    in a single bracket: the {!Deadlock} watchdog's edges when it was
    enabled at creation, and acquire/hold probe spans when tracing. The
    Hold starts at the instant the Acquire ends. A traced [lock] on a
    real tier tries the lock first; when that succeeds its Acquire is
    zero-wait ([dur = 0]), stamped by one clock read. Det mutexes skip
    the try, so tracing adds no scheduling point.

    [Sys] stays a direct constructor: [Stdlib.Condition.wait] needs the
    raw stdlib mutex, and every default-tier mutex would otherwise pay a
    closure call. The fast tier is a cell whose closure holds the
    uncontended CAS inline.

    The representation is exposed so that {!Condition} can pair det
    conditions with det mutexes and park waiters of cell and swap
    mutexes; treat it as internal. *)

type swap = {
  cur : Sync_prims.Tier.cell Atomic.t;
  mutable held : Sync_prims.Tier.cell;
}
(** A hot-swappable (E27) site: the cell it currently routes to, and
    the cell its current holder actually locked. Cells are never reused
    across swaps, so the acquire re-check can rely on physical
    equality. *)

type impl =
  | Det of Detrt.mutex
  | Sys of Stdlib.Mutex.t
  | Cell of Sync_prims.Tier.cell
  | Swap of swap

type t = {
  impl : impl;
  rid : int;
  name : string;
  mutable acquired_at : int;
}

val raw_lock : t -> unit
(** Acquire with no probe/watchdog bookkeeping. Internal: used by
    {!Condition} to re-acquire after a park or a timed-wait yield. *)

val raw_unlock : t -> unit
(** Release with no probe/watchdog bookkeeping. Internal: used by
    {!Condition}. *)

val create : ?name:string -> unit -> t
(** A mutex on the current tier; deterministic inside a {!Detrt} run.
    [name] (default ["mutex"]) is the trace site label: when tracing is
    on, [lock]/[unlock] emit acquire and hold spans against it. *)

val lock : t -> unit

val unlock : t -> unit

val try_lock : t -> bool
(** Non-blocking acquire. Under {!Detrt} the attempt is itself a recorded
    scheduling point, so the outcome replays with the schedule. A
    successful attempt emits a zero-wait [Acquire] span when tracing is
    on, so try-lock users show up in profiled acquire counts. *)

val try_lock_for : t -> timeout_ns:int64 -> bool
(** [try_lock_for t ~timeout_ns] polls {!try_lock} until it succeeds or
    the monotonic deadline passes; [true] iff the lock was acquired.
    Real-thread polling uses {!Backoff} exponential backoff between
    attempts. Deterministic under {!Detrt} (the timeout becomes a poll
    budget, see {!Deadline}, and every poll is a scheduling point). *)

val protect : t -> (unit -> 'a) -> 'a
(** [protect m f] runs [f] with [m] held, releasing on any exit. *)

(** {1 Hot-swappable sites (E27)}

    A mutex created inside {!with_swappable} carries one extra
    indirection: an atomic pointer to the cell (sys / fast / queue
    impl) it currently routes through. {!swap_to} retiers a live site
    with an epoch-quiesced protocol — the swapper locks the old cell,
    publishes the fresh one (new acquirers route there immediately),
    then releases; stragglers that locked the old cell re-check the
    indirection, back out and retry, so the old impl drains and mutual
    exclusion is never violated (DPOR-certified by the catalog's
    [swap-excl] scenarios). *)

type tier = [ `Sys | `Fast | `Queue of Sync_prims.Queuelock.kind ]
(** The tiers a swappable site can move between. [Det] is a different
    world and [Prim] a deliberate class restriction; neither swaps. *)

val tier_name : tier -> string
(** ["sys"], ["fast"], ["queue-mcs"], ["queue-clh"], ["queue-ticket"]. *)

val all_tiers : tier list

val tier_index : tier -> int
(** Stable small integer identifying a tier — the [arg] of the [Flip]
    probe instants {!swap_to} emits. *)

val tier_of_index : int -> tier option

val with_swappable : (unit -> 'a) -> 'a
(** [with_swappable f] is [Tier.with_tier `Adaptive f] plus a fresh
    site registry. Mutexes created inside the scope start on [`Sys].
    The registry is cleared on entry and {e kept} on exit, so a
    controller started after the build scope closes still enumerates
    the run's sites via {!swap_sites}; the next scope clears the slate.
    Concurrent scopes are not supported (see {!Sync_prims.Tier}). *)

val swap_sites : unit -> t list
(** Every swappable mutex created in the most recent scope, newest
    first — the adaptive controller's enumeration point. *)

val current_tier : t -> tier option
(** The tier a swappable site currently routes to; [None] for
    non-swappable mutexes. *)

val swap_to : t -> tier -> bool
(** [swap_to t tier] retiers a swappable site, allocating a fresh cell
    and draining the old one (see above); blocks until the old cell's
    holder — if any — releases. Emits a [Flip] probe instant against
    the site with [arg = tier_index tier]. Returns [false] (and does
    nothing) if [t] is not swappable or already routes to [tier]. *)

(** {1 Spin tuning (E27)} *)

val spin_rounds : unit -> int
(** Backoff rounds a contended fast-tier acquire spins before parking.
    Defaults to 8 on multicore, 0 on a single core. *)

val set_spin_rounds : int -> unit
(** Retune {!spin_rounds} live: the next contended acquisition — on
    any fast-tier mutex — sees the new value. Read on the contended
    slow path only; the uncontended CAS never loads it.
    @raise Invalid_argument on a negative count. *)
