(** Time sources.

    Two clocks are provided: the monotonic wall clock used for tracing and
    benchmarking, and a {e virtual} clock used by time-driven problems (the
    alarm-clock problem of Hoare'74) so that tests advance time explicitly
    instead of sleeping. *)

external now_ns : unit -> (int64[@unboxed])
  = "sync_clock_monotonic_byte" "sync_clock_monotonic"
[@@noalloc]
(** Monotonic wall-clock time in nanoseconds ([CLOCK_MONOTONIC]).
    Declared as the C call itself, so a caller in another module that
    converts the result straight to an int allocates nothing. *)

val elapsed_ns : int64 -> int64
(** [elapsed_ns t0] is [now_ns () - t0]. *)

(** A virtual clock: an integer tick counter advanced explicitly.

    Waiters may block until the clock reaches an absolute tick. [advance]
    wakes every waiter whose deadline has been reached. This models the
    hardware tick interrupt that drives Hoare's alarm-clock monitor. *)
module Virtual : sig
  type t

  val create : ?start:int -> unit -> t

  val now : t -> int
  (** Current tick count. *)

  val advance : t -> int -> unit
  (** [advance t n] adds [n >= 0] ticks and wakes eligible sleepers. *)

  val sleep_until : t -> int -> unit
  (** Block the calling thread until [now t >= deadline]. Returns
      immediately if the deadline has already passed. *)

  val sleepers : t -> int
  (** Number of threads currently blocked in {!sleep_until} (for tests). *)
end
