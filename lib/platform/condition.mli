(** Condition variables, deterministic-run aware.

    Shadows the stdlib [Condition] inside [Sync_platform], pairing with
    the shadowed {!Mutex}: created during a {!Detrt} run it is a virtual
    condition scheduled deterministically, otherwise a system condition.
    Semantics follow the stdlib contract (Mesa-style: a woken waiter
    re-acquires the mutex and must re-check its predicate).

    Real-thread conditions work with every mutex tier: waits under a
    default (Sys) mutex use the stdlib condition variable directly;
    waits under any other real mutex park on a private
    sequence-numbered lot inside the condition. The dispatch happens
    per [wait], on the mutex the caller passes, so a condition created
    at any time pairs correctly with any tier. Signals may wake parked
    waiters spuriously (the lot is level-triggered); callers already
    absorb that with their predicate loops. *)

type t

val create : unit -> t

val wait : t -> Mutex.t -> unit

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
