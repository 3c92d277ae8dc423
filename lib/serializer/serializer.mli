(** Serializers [Atkinson-Hewitt'79].

    A serializer is a possession-based region like a monitor, with three
    differences that the paper's evaluation turns on:

    - {b Automatic signalling}: there is no [signal]. A process parks with
      [enqueue q ~until:guard]; whenever possession is released (region
      exit, another [enqueue], or [join_crowd]), the serializer re-evaluates
      the guards of all {e queue heads} and transfers possession to the
      eligible waiter that has been waiting longest. Guards are therefore
      re-checked only at possession-release points, and a resumed process
      may assume its guard holds.
    - {b Queues are strictly FIFO} (or priority-ordered): only the head of
      a queue is eligible to leave it. Processes waiting for {e different}
      conditions can share one queue — this is how serializers dissolve the
      monitor's request-type/request-time conflict (§5.2): order is kept by
      the shared queue, types are distinguished by their guards.
    - {b Crowds} record the processes currently accessing the resource.
      [join_crowd c ~body] adds the caller to [c], releases possession,
      runs [body] (the actual resource operation) outside the serializer,
      then re-gains possession and leaves [c]. Guards typically test
      [Crowd.is_empty]. This both replaces the explicit counts monitors
      need (synchronization-state information) and bakes in the Section-2
      resource/synchronizer structure, avoiding nested-call deadlocks.

    Guards run under the serializer's internal lock: they must be quick,
    non-blocking, and touch only synchronizer state (crowd/queue tests,
    local counters mutated while holding possession). *)

type t

val abort_policy : Sync_platform.Fault.abort_policy
(** [`Propagate]: an abort inside the region or while parked unwinds to
    the caller with possession handed on and queues/crowds consistent. A
    {e guard} that raises is special-cased — guards run in whichever
    process is releasing possession, so instead of failing that innocent
    process the waiter is marked poisoned, woken, and re-raises the
    guard's exception from its own [enqueue], still holding possession,
    which the [with_serializer] bracket then releases. A guard that
    raises when [enqueue] evaluates it directly (see {!enqueue}) fails
    the same way. *)

val create : unit -> t

val with_serializer : t -> (unit -> 'a) -> 'a
(** Gain possession (FIFO behind other entrants), run the body, release
    (triggering guard re-evaluation). Exception-safe. *)

val inside : t -> bool
(** Whether the calling context currently holds possession — approximated
    as "some process holds possession"; for assertions in tests. *)

(** FIFO / priority event queues. *)
module Queue : sig
  type serializer := t

  type t

  val create : ?name:string -> serializer -> t

  val name : t -> string

  val length : t -> int

  val is_empty : t -> bool

  val guard_length : t -> int
  (** Like {!length} but without taking the serializer's internal lock —
      for use {e inside guards only}, which already run under that lock
      (taking it again would self-deadlock). *)

  val guard_is_empty : t -> bool
end

(** Crowds: the set of processes currently executing a resource
    operation. *)
module Crowd : sig
  type serializer := t

  type t

  val create : ?name:string -> serializer -> t

  val name : t -> string

  val count : t -> int

  val is_empty : t -> bool
end

val enqueue : ?rank:int -> Queue.t -> until:(unit -> bool) -> unit
(** Must be called with possession. Parks the caller on the queue (ordered
    by [rank], default 0, then arrival; only the head is eligible),
    releases possession, and returns once the guard held at a release
    point and possession was transferred back. When the queue is empty,
    no other queue head is eligible and the guard already holds, the
    caller is the waiter that release would pick, so it keeps possession
    and returns at once (no park, no handoff). *)

val join_crowd : Crowd.t -> body:(unit -> 'a) -> 'a
(** Must be called with possession. Runs [body] outside the serializer as
    a member of the crowd, then re-gains possession. If [body] raises, the
    crowd is still left before the exception propagates. *)
