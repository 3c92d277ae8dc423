(** Monotonic deadlines for the timed blocking operations
    ([Mutex.try_lock_for], [Condition.wait_for], [Semaphore.acquire_for],
    [Waitq.wait_for]).

    Outside a deterministic run a deadline is an absolute monotonic
    timestamp. Inside a {!Detrt} run wall-clock time does not exist, so a
    deadline degrades to a {e poll budget}: each {!expired} check spends
    one unit, and the deadline fires when the budget is gone. Since the
    timed waits check once per polling step — and every polling step is a
    recorded scheduling point — timeout behaviour is a pure function of
    the schedule and replays deterministically. *)

type t

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds, the clock [Wall] deadlines count
    (the same read as [Clock.now_ns]), allocation-free. *)

val after_ns : int64 -> t
(** Deadline [ns] nanoseconds from now (det runs: a poll budget of about
    one unit per 50µs, clamped to [2, 100_000]). A non-positive [ns] is
    expired from the start — in both worlds the timed waits then reject
    without a syscall-level park (det runs: poll budget 0). *)

val after_s : float -> t
(** Same, in seconds. *)

val never : t
(** Never expires. *)

val expired : t -> bool
(** Has the deadline passed? Each call on a det-run deadline consumes one
    unit of the poll budget. *)
