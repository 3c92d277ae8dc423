(** Hoare monitors [Hoare'74], with the Mesa signalling variant.

    A monitor is a mutual-exclusion region plus {e condition} queues. This
    implementation follows the semantics the paper's analysis depends on:

    - {b Hoare (signal-and-wait)} — the default. [signal] on a non-empty
      condition immediately transfers the monitor to the longest-waiting
      (or highest-priority) waiter; the signaller is parked on the {e
      urgent} queue and resumes, still inside the monitor, before any
      process blocked at the entry. A signalled waiter may therefore assume
      the condition it waited for still holds — no re-check loop.
    - {b Mesa (signal-and-continue)} — selected with [create ~discipline:
      `Mesa]. [signal] merely makes a waiter runnable; it re-enters through
      the ordinary entry queue, so waiters must re-test their predicate in
      a [while] loop.

    Entry, urgent and condition queues are all FIFO (longest waiting
    first); conditions additionally support Hoare's {e priority wait}
    ([wait_pri]), which the disk-head scheduler and alarm-clock monitors
    require for request-parameter information. *)

type discipline = [ `Hoare | `Mesa ]

val abort_policy : Sync_platform.Fault.abort_policy
(** [`Propagate]: an abort raised inside (or while entering) the monitor
    unwinds past {!with_monitor}, re-granting ownership on the way out;
    queues and the busy flag are left consistent. Every ownership-carrying
    wake (entry, urgent, Hoare condition transfer) re-grants the monitor
    if the woken process aborts before running. *)

type t
(** A monitor instance. *)

val create : ?discipline:discipline -> unit -> t

val discipline : t -> discipline

val enter : t -> unit
(** Acquire the monitor, queueing FIFO behind current entrants. Re-entry by
    the holder is a programming error and deadlocks (as in the original
    construct; see the nested-call experiment E11). *)

val exit : t -> unit
(** Release the monitor: the urgent queue has absolute priority over the
    entry queue. *)

val with_monitor : t -> (unit -> 'a) -> 'a
(** [with_monitor m f] brackets [f] with {!enter}/{!exit}, releasing on
    exception. *)

val entry_waiters : t -> int
(** Processes blocked at the entry (racy; introspection for tests). *)

(** Condition variables belonging to a monitor. All operations must be
    called while inside the owning monitor. *)
module Cond : sig
  type monitor := t

  type t

  val create : monitor -> t

  val wait : t -> unit
  (** Release the monitor and park FIFO on this condition. *)

  val wait_pri : t -> int -> unit
  (** Hoare's priority wait: park with an integer rank; [signal] wakes the
      smallest rank first (ties FIFO). *)

  val signal : t -> unit
  (** Wake one waiter per the monitor's discipline; no-op when empty.
      Call it as the monitor's owner: only then is the lock-free empty
      test that makes the no-op free exact. *)

  val broadcast : t -> unit
  (** Mesa-style wake-all. Under the Hoare discipline this is realized as a
      cascade of signal-and-waits and is rarely what a Hoare-style solution
      wants; it exists for the Mesa suites. *)

  val queue : t -> bool
  (** Hoare's [queue] primitive: is anybody waiting? *)

  val count : t -> int

  val min_rank : t -> int option
  (** Smallest rank among priority waiters ([None] if empty); lets the
      disk-scheduler monitor inspect the nearest pending track. *)
end
