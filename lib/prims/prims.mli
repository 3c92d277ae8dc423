(** Primitive classes: which atomic operations the synchronization
    substrate may use (E25).

    The platform's [Mutex]/[Semaphore] facades build on this module's
    per-class constructions when the creation-time {!Tier} is
    [`Prim c]:

    - {b RW} — atomic read/write registers only: Lamport's bakery lock
      with the bounded-timestamp fix; a bakery-guarded weak counting
      semaphore. Strong (FCFS) semaphores are {e rejected} (typed).
    - {b CAS} — compare-and-swap only: test-and-CAS lock, CAS-loop weak
      semaphore; strong semaphore via a CAS-synthesized ticket.
    - {b FAA} — fetch-and-add only: ticket lock, value-netting weak
      semaphore, native FIFO ticket semaphore.
    - {b LLSC} — load-linked/store-conditional, emulated from CAS with
      ABA tagging ({!Llsc}); locks and semaphores built only from the
      emulation.

    Classes that cannot express a primitive raise {!Unsupported} with a
    typed reason — the hierarchy scorecard records these as results,
    never as crashes. *)

type cls = Tier.cls = RW | CAS | FAA | LLSC

exception Unsupported of { cls : cls; feature : string; reason : string }
(** A class cannot express a requested primitive (e.g. [RW] ×
    strong/FCFS semaphore). [feature] is a stable machine-readable
    label like ["semaphore.strong"]. *)

val cls_name : cls -> string
(** ["rw"], ["cas"], ["faa"], ["llsc"] — report labels. *)

val all : cls list
(** [[RW; CAS; FAA; LLSC]]. *)

val with_class : cls -> (unit -> 'a) -> 'a
(** [with_class c f] is [Tier.with_tier (`Prim c) f]. *)

val make_lock : cls -> Tier.cell
(** A class-restricted lock as a {!Tier.cell} tagged [`Prim cls].
    RW-class locks assign bakery slots
    per calling thread: at most 64 distinct threads per lock; the 65th
    fails with [Failure "Prims: more than 64 distinct threads on one
    RW-class lock"]. *)

(** A class-restricted counting semaphore. [sm_p_poll expired] is the
    timed P: it returns [false] only after observing [expired ()] true,
    and conservation holds on that path (an abandoned FIFO turn is
    covered by a donated unit). *)
type sem = {
  sm_p : unit -> unit;
  sm_try : unit -> bool;
  sm_p_poll : (unit -> bool) -> bool;
  sm_v : int -> unit;
  sm_value : unit -> int;
  sm_waiters : unit -> int;  (** callers inside a blocking P (racy). *)
}

val make_sem : cls -> fairness:[ `Strong | `Weak ] -> int -> sem
(** @raise Unsupported for [RW] × [`Strong] (typed: FCFS needs an
    order-assigning RMW).
    @raise Invalid_argument on a negative initial value. *)
