(** Condition variables, deterministic-run aware.

    Shadows the stdlib [Condition] inside [Sync_platform], pairing with
    the shadowed {!Mutex}: created during a {!Detrt} run it is a virtual
    condition scheduled deterministically, otherwise a system condition.
    Semantics follow the stdlib contract (Mesa-style: a woken waiter
    re-acquires the mutex and must re-check its predicate).

    Real-thread conditions work with every mutex tier. A real-thread
    {!wait} spins before it parks: it releases the mutex and, for up to
    [64 * Mutex.spin_rounds ()] probes ({!Mutex.spin}), watches for a
    {!signal} or {!broadcast}; a signal that lands in the spin hands
    the turn over with no futex sleep and wake. Only then does it park,
    in a private wakeup lot inside the condition. With no spin budget
    ({!Mutex.spin_rounds} is 0 on a single core) a wait under a default
    (Sys) mutex parks in the stdlib condition variable directly, and
    one under any other real mutex parks in the lot straight away. The
    dispatch happens per [wait], on the mutex the caller passes, so a
    condition created at any time pairs correctly with any tier. A
    signal ends every spin in progress and may wake parked waiters
    spuriously (the lot is level-triggered); callers absorb that with
    their predicate loops, which {!await} writes once. *)

type t

val create : unit -> t

val wait : t -> Mutex.t -> unit

val await : t -> Mutex.t -> site:string -> (unit -> bool) -> unit
(** [await c m ~site until] is the predicate loop: call it with [m]
    held; it returns, with [m] held, once [until ()] holds. [until] is
    evaluated only under [m]. While it is false, [await] waits on [c]
    and emits a [Spurious] probe instant at [site] for each wakeup that
    finds [until ()] still false. With tracing on, each wait closes the
    holder's [Hold] span once and reopens it once; the spin adds none.
    Under {!Detrt} it is exactly [wait], then re-check and [wait] again:
    the same scheduling points as the hand-written loop. *)

val wait_for : t -> Mutex.t -> deadline:Deadline.t -> bool
(** Timed wait, by bounded polling (stdlib conditions cannot time out):
    releases the mutex, yields, reacquires, and returns [true] — a
    spurious wakeup per polling step — or returns [false] immediately,
    with the mutex still held, once [deadline] has expired. Always call
    in a predicate loop:
    [while not p && Condition.wait_for c m ~deadline do () done; p].
    Deterministic under {!Detrt}. *)

val signal : t -> unit

val broadcast : t -> unit
