(** Exponential backoff for contended retry loops.

    A [Backoff.t] tracks how long the current thread has been spinning on a
    contended location. Each call to {!once} spins for a bounded, randomized
    number of iterations and doubles the bound, yielding to the scheduler
    once the bound saturates. This is the standard contention-management
    substrate used by the spin-based primitives in this library.

    Whether spinning can help at all is a property of the machine at the
    moment the contended loop starts: on a single core the peer cannot
    run while we spin, so {!once} goes straight to [Thread.yield]. That
    decision is made per backoff at {!create} time (re-reading
    [Domain.recommended_domain_count]), not once per process, so tests
    that pin domains — and long-lived processes whose affinity changes —
    get the right behaviour for each loop. [?multicore] overrides the
    probe for tests. *)

type t

val create : ?multicore:bool -> ?min_wait:int -> ?max_wait:int -> unit -> t
(** [create ()] returns a fresh backoff in its initial (shortest) state.
    [min_wait] and [max_wait] bound the spin count; both must be positive
    powers of two with [min_wait <= max_wait], and default to 16 and
    4096. [multicore] defaults to [Domain.recommended_domain_count () > 1],
    probed at this call.
    @raise Invalid_argument on invalid spin bounds. *)

val multicore : t -> bool
(** The spin-vs-yield decision this backoff was created with. *)

val once : t -> unit
(** Spin (or yield, once saturated or single-core) and escalate. *)

val reset : t -> unit
(** Return the backoff to its initial state (call after a successful
    acquisition). *)
