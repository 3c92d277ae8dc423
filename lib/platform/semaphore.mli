(** Dijkstra semaphores, built from scratch on mutex + selective wakeup.

    Two flavours are provided:

    - {!Counting}: a general counting semaphore with a choice of fairness.
      [`Strong] (the default) grants [P] strictly in arrival order — the
      "blocked-queue" semantics Dijkstra's later work and most textbook
      solutions assume. [`Weak] wakes an arbitrary waiter, which is enough
      for mutual exclusion but admits starvation; the evaluation harness
      uses it to show which classic solutions silently depend on strong
      semantics.
    - {!Binary}: a binary semaphore (value 0 or 1); [V] on an open binary
      semaphore is a programming error and raises.

    These are the substrate for the Campbell-Habermann path-expression
    translation and for the baseline semaphore solutions of the six
    canonical problems.

    A counting semaphore takes its tier from {!Sync_prims.Tier} at
    creation (inside {!Detrt}, always the queued construction). On
    [`Fast] a [`Weak] semaphore uses the contention-adaptive tier (E22):
    a non-negative atomic value, CAS [P], fetch-and-add [V], and the
    internal lock touched only when a waiter parks ([`Strong] stays
    queued: a CAS fast path barges). [`Prim c] builds the protocol from
    atomic class [c] (E25) and [`Queue k] from the FAA class (E23); any
    other tier uses the queued construction on a mutex of that tier. *)

type fairness = [ `Strong | `Weak ]

module Counting : sig
  type t

  val create : ?fairness:fairness -> int -> t
  (** [create n] has initial value [n >= 0]. *)

  val p : t -> unit
  (** Dijkstra's P (wait/down): decrement, blocking while the value is 0.

      Exception-safe: an abort injected while parked (see {!Fault}, sites
      ["semaphore.pre-wait"] / ["waitq.pre-wait"] / ["waitq.post-wakeup"])
      never leaks a unit of value — a grant consumed by an aborting waiter
      is re-routed to the next waiter or returned to the counter. *)

  val acquire_for : t -> timeout_ns:int64 -> bool
  (** Timed P with a monotonic deadline: [true] iff the semaphore was
      acquired before [timeout_ns] elapsed; on timeout the caller is
      removed from the wait queue and the value is untouched.
      Deterministic under {!Detrt} (the timeout becomes a poll budget,
      see {!Deadline}). *)

  val v : t -> unit
  (** Dijkstra's V (signal/up): increment, waking one waiter if any. *)

  val v_n : t -> int -> unit
  (** [v_n s n] releases [n] units as one batched V: one lock
      acquisition and one wake pass instead of [n] round-trips.
      Strong mode hands the units to the [n] oldest waiters in a
      single {!Waitq.wake_n} sweep (remaining units go to the
      counter); weak mode adds [n] and broadcasts once. Equivalent to
      [n] calls of {!v} up to wake order. [n = 0] is a no-op.
      @raise Invalid_argument if [n < 0]. *)

  val try_p : t -> bool
  (** Non-blocking P; [true] on success. *)

  val value : t -> int
  (** Current value (racy; for tests and introspection). *)

  val waiters : t -> int
  (** Number of blocked processes (racy; for tests). *)
end

module Binary : sig
  type t

  val create : bool -> t
  (** [create true] is open (value 1); [create false] is closed. *)

  val p : t -> unit

  val acquire_for : t -> timeout_ns:int64 -> bool
  (** Timed P; see {!Counting.acquire_for}. *)

  val v : t -> unit
  (** @raise Invalid_argument if the semaphore is already open. *)

  val value : t -> int
end
