(** Low-overhead structured event probes (the E21 observability layer).

    The platform primitives ([Mutex], [Waitq], [Semaphore]) and every
    mechanism library call these entry points at their interesting
    moments: blocking to acquire, holding, parking on a queue, issuing a
    wake, handing a grant directly to a waiter. Each event carries a
    {e site} (a static string naming the instrumented structure), the
    current {e operation} label (stamped per worker by the load engine),
    the recording {e actor} (OS thread, or virtual task inside a
    deterministic run, encoded negative), a start timestamp, a duration
    (spans) and one integer argument whose meaning depends on the kind
    (queue depth, waiters woken, nanoseconds abandoned...).

    Recording is share-nothing: one ring buffer per thread, wraparound
    overwrites the oldest events ({!dropped} counts them). An event is
    four ints in one int array — a header packing kind, op-label index
    and actor, then start, duration and argument — plus its site in a
    string array: at most one write barrier per event, none when the
    slot already holds that very site string. When tracing is disabled
    — the default — every probe is one atomic flag read and a branch: no
    clock read, no allocation. When enabled, recording allocates nothing
    once the thread's ring exists. Both claims are machine-checked
    (Gc-stat tests; A/B bench cell), so keep them true when extending
    this interface: no optional arguments, no closures on the fast path.

    Timestamps come from {!Probe_clock}: the invariant TSC, calibrated
    against [CLOCK_MONOTONIC] at the first {!enable}, on an x86-64 box
    whose kernel runs on the TSC; [CLOCK_MONOTONIC] anywhere else. Either
    way they are nanoseconds, so a ring holds the same values it always
    did.

    An enabled event costs its clock read, the thread's ring lookup, one
    release publish of the ring position and the ring stores. On a shared
    2-vCPU box (OCaml 5.1.1, a second domain live) those are 17–18 ns,
    ~7 ns, ~10 ns and ~5 ns. The read was 28–29 ns through
    [clock_gettime] in the same session; the stores were ~12 ns while
    the header packing, the searches' bounds and the label lookup were
    calls and every site store paid a write barrier. dune's dev profile compiles
    with [-opaque], so these entry points stay out of line in their
    callers: only work inside probe.ml inlines. The clock dominates, so
    a traced operation reads the clock once per distinct instant. Where
    one instant ends a span and starts the next (an acquire ending where
    its hold begins), read the clock once and pass
    the timestamp to {!record}. Where a span starts and ends exactly
    where events recorded inside it do (a monitor entry around its
    platform lock, a mechanism operation around its lock round trips),
    take a {!mark} before and let {!span_marked} or {!span_to_latest}
    borrow those events' timestamps: no clock read at all. Only the
    platform mutex ([Acquire]/[Hold] of its site), the waits and the
    instants read the clock. *)

type kind =
  | Acquire  (** span: blocked entering a lock / region / possession *)
  | Hold  (** span: a lock, monitor or possession was held *)
  | Wait  (** span: parked on a queue or condition; arg = queue depth *)
  | Op  (** span: one mechanism-level operation *)
  | Signal  (** instant: a wake was issued; arg = waiters present *)
  | Handoff  (** instant: grant handed directly to a waiter; arg = waiters left *)
  | Abandon  (** instant: a timed wait gave up; arg = ns spent waiting *)
  | Spurious  (** instant: woken with the awaited predicate still false *)
  | Flip  (** instant: a site changed tier; arg = the new tier's index *)

val kind_to_string : kind -> string

val is_span : kind -> bool

val enabled : unit -> bool
(** One atomic load. Check it before computing anything a probe needs. *)

val enable : unit -> unit
(** Start recording. The first call in a process calibrates the probe
    clock ({!Probe_clock.calibrate}, a window of at least 2 ms) and
    publishes it before the flag, so every event is stamped by the one
    clock; later calls only set the flag. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop all buffers and the op-label table. Call only while no traced
    code is running. *)

val set_capacity : int -> unit
(** Ring capacity for buffers created after the call (default 65536),
    rounded up to a power of two: [set_capacity 100] gives 128-event
    rings.
    @raise Invalid_argument below 2 or above 2{^30}. *)

val now : unit -> int
(** Monotonic nanoseconds as an int ({!Probe_clock.now_ns}), or 0 when
    tracing is disabled —
    the span start token: [span] ignores calls with [since = 0], so
    [let t0 = now () in ... ; span K ~site ~since:t0 ~arg] is correct in
    both worlds and free in the disabled one. *)

val record : kind -> site:string -> t0:int -> dur:int -> arg:int -> unit
(** Record an event from timestamps the caller already holds: it started
    at [t0] (from {!now}) and lasted [dur] ns ([0] for an instant). No-op
    when disabled or [t0 = 0]. *)

val span : kind -> site:string -> since:int -> arg:int -> unit
(** [record] of a span that started at [since] and ends now: one clock
    read. No-op when disabled or [since = 0]. *)

val span_end : kind -> site:string -> since:int -> arg:int -> int
(** {!span}, returning the instant it ended ([0] when it recorded
    nothing): the start of a span that begins where this one ends. *)

val instant : kind -> site:string -> arg:int -> unit

val round_trip : site:string -> t0:int -> unit
(** A zero-wait [Acquire] at [t0] and the [Hold] it opened, ending now:
    one clock read, both events written and published together. The
    platform mutex calls it at unlock for an acquire that did not wait.
    No-op when disabled or [t0 = 0] — a round trip whose release runs
    after tracing was disabled records neither event. *)

(** {1 Spans borrowed from recorded events} *)

val mark : unit -> int
(** A token for the calling thread's position in its ring, [0] when
    tracing is disabled. Events the thread records after it are "since
    the mark"; inside a deterministic run, only the calling virtual
    task's. *)

val span_marked : kind -> site:string -> mark:int -> arg:int -> int
(** Record a span from the start of the first event the thread wrote
    since [mark] to the end of the latest one, and return that end (the
    start of a span that begins where this one ends). No clock read
    unless nothing was recorded since [mark]: then the span is the
    instant of one read. The first event {e written}: a platform lock
    writes a zero-wait [Acquire] only at release, after any instant
    recorded while it was held, so take the mark right before the span's
    first lock. No-op returning [0] when disabled or [mark = 0]. *)

val span_to_latest :
  kind -> site:string -> since:int -> mark:int -> arg:int -> unit
(** Record a span from [since] to the end of the latest event the thread
    recorded since [mark] (one clock read if none). No-op when disabled,
    [since = 0] or [mark = 0]. *)

val latest_start : int -> int
(** [latest_start mark]: the start of the latest event the thread
    recorded since [mark] (one clock read if none); [0] when disabled or
    [mark = 0]. *)

val set_op : string -> unit
(** Stamp the calling thread's subsequent events with an operation
    label (the load engine calls this before each driven op). Each
    thread caches its last few labels by physical string, so passing
    the same string again costs no interning; any other string is
    interned. Events carry the label's index, and the label table lives
    until the next {!reset}, so every retained event keeps its label
    across ring wraparound.
    @raise Invalid_argument on a label beyond the {!max_op_labels}th
    distinct one since the last {!reset}; the thread's events are then
    unlabelled ([op = ""]) until its next successful [set_op]. *)

val max_op_labels : int
(** Distinct op labels an event can carry between resets: 65535, plus
    the empty label of events recorded before any {!set_op}. *)

val min_actor : int
(** The smallest actor id an event can carry, [-2{^42}]: a virtual task
    id up to [2{^42} - 1]. *)

val max_actor : int
(** The largest, [2{^42} - 1] (OS thread ids are small sequential
    numbers). *)

val set_task_provider : (unit -> int option) -> unit
(** Actor ids inside deterministic runs (wired up by [Detrt], like the
    fault and deadlock providers). *)

val virtual_run : (unit -> 'a) -> 'a
(** [virtual_run f] runs [f], a deterministic run: while any such run is
    in progress, on any domain, events ask the task provider for their
    actor. Outside them the actor is the OS thread id and the provider
    is not called. *)

(** {1 Snapshots} *)

type event = {
  t0 : int;
  dur : int;
  kind : kind;
  site : string;
  op : string;
  actor : int;  (** OS thread id, or [-(task id + 1)] for virtual tasks *)
  arg : int;
}

val snapshot : unit -> event list
(** Every retained event across all buffers, sorted by start time. Take
    it after the traced region has quiesced for a complete picture. *)

val live_snapshot : unit -> event list
(** {!snapshot}, named for the adaptive sampler's read path: it is safe
    while recording threads keep writing. Each ring is read under a
    seqlock on its atomic position counter, and only events fully
    published before the read began and not overwritten during it are
    returned — never a torn slot. Events recorded during the read are
    simply missed until the next sample. *)

type cursor
(** Consumption frontier over the per-thread rings, for incremental
    live reads. *)

val start_cursor : cursor
(** The frontier that has consumed nothing. *)

val live_read : cursor -> event list * cursor
(** Events recorded past the cursor (sorted by start time) and the
    advanced cursor. Same seqlock guarantees as {!live_snapshot}, but
    the work done is proportional to the {e new} events, not to ring
    capacity — the periodic-sampler read path. Events overwritten
    before being consumed are lost, exactly as in {!live_snapshot}. *)

val total : unit -> int
(** Events ever recorded since the last {!reset} (including dropped). *)

val dropped : unit -> int
(** Events lost to ring wraparound. *)

val with_tracing : (unit -> 'a) -> 'a * event list
(** [reset]; [enable]; run; [disable]; [snapshot]. The flag is cleared
    (but the buffers kept) if the thunk raises. *)

val actor_label : int -> string
(** ["t12"] for OS threads, ["v3"] for virtual tasks. *)
