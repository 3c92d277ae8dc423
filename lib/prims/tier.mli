(** The substrate tier a synchronization primitive is built on.

    One process-wide cell holds the current tier. The platform's
    [Mutex] and [Semaphore] read it once, when a primitive is created,
    and the primitive keeps that tier for life. {!with_tier} sets the
    cell for the extent of a thunk and restores it on any exit, so
    nested scopes resolve innermost-first; there is no ranking between
    tiers. The platform adds one rule: inside a deterministic ([Detrt])
    run every primitive is deterministic, whatever the cell holds.

    {b Cross-thread semantics.} The cell is shared by every thread and
    domain: a primitive that {e any} thread creates while a scope is
    open gets that scope's tier. Solutions spawn threads and CSP server
    processes while they are built, and those must inherit the
    builder's tier. The price is that two scopes must never be open at
    once on different threads. Nothing in the library does that;
    callers that build targets from several threads must serialize the
    builds. *)

type cls = RW | CAS | FAA | LLSC
(** Restricted atomic classes (E25); re-exported as [Prims.cls]. *)

type kind = MCS | CLH | Ticket
(** Local-spin queue-lock kinds (E23); re-exported as [Queuelock.kind]. *)

type t = [ `Default | `Fast | `Prim of cls | `Queue of kind | `Adaptive ]
(** Stdlib-backed; contention-adaptive (E22); one restricted atomic
    class (E25); a queue lock (E23); hot-swappable mutex sites
    ({!Sync_platform.Mutex.with_swappable}, not in {!all}). *)

val name : t -> string
(** ["default"], ["fast"], ["rw"], ["cas"], ["faa"], ["llsc"],
    ["mcs"], ["clh"], ["ticket"], ["adaptive"]: the report
    labels that committed BENCH files key their rows on. *)

val of_string : string -> t option
(** The tier in {!all} with this {!name}; [None] for ["adaptive"]. *)

val all : t list
(** Every selectable tier, in {!name}'s order: all but [`Adaptive]. *)

(** A mutual-exclusion lock as closures: the one representation every
    non-default tier produces. *)
type cell = {
  lock : unit -> unit;
  try_lock : unit -> bool;
      (** May fail spuriously (RW), and on FAA may briefly wait out a
          lost race: fetch-and-add cannot withdraw a committed ticket
          (see docs/hierarchy.md). *)
  unlock : unit -> unit;
  tier : t;
}

val current : unit -> t

val with_tier : t -> (unit -> 'a) -> 'a
(** [with_tier t f] runs [f] with the current tier set to [t],
    restoring the previous tier on any exit. *)
