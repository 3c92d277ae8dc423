(** Catalog of deterministic scenarios over the real mechanism
    implementations: bounded buffer (semaphore, monitor), the footnote-3
    writer-handoff situation (Figure 1 and 2 path expressions, monitor,
    serializer), FCFS drain order (Hoare monitor, Mesa ticket monitor,
    semaphore queue), Hoare no-barging against its Mesa control, and a
    deliberate lock-order-inversion deadlock. Entries marked [Fail] or
    [Always_fail] are the reproduced anomalies — exploration is expected
    to find failing schedules there and nowhere else. *)

type expectation =
  | Pass  (** no schedule fails *)
  | Fail  (** some schedule fails *)
  | Always_fail  (** every schedule fails: no interleaving avoids it *)

type entry = { scen : Detsched.t; expect : expectation }

val all : entry list

val find : string -> entry option

(** {1 Parametric builders}

    Sized variants of the catalog scenarios, for exploration experiments
    that need instance shapes the fixed catalog does not carry (the E26
    axis runs shapes whose schedule trees naive DFS cannot finish). *)

val bb_sized :
  string ->
  (module Sync_problems.Bb_intf.S) ->
  capacity:int ->
  producers:int ->
  consumers:int ->
  items:int ->
  Detsched.t
(** Bounded-buffer run + full trace check at the given instance size. *)

val rw_excl :
  string ->
  (module Sync_problems.Rw_intf.S) ->
  readers:int ->
  writers:int ->
  ops:int ->
  Detsched.t
(** Readers-writers stress mix whose check machine-verifies the
    mutual-exclusion invariant (writers exclude everything) on the
    recorded trace of every explored schedule. *)

val storm_bb_sem :
  ?capacity:int ->
  ?producers:int ->
  ?consumers:int ->
  ?items:int ->
  unit ->
  Detsched.t
(** The E19 cancellation storm (aborts at [semaphore.pre-wait] and
    [bb.put.body]) over the semaphore bounded buffer, parametric in the
    instance size; the recovery machinery is checked on every surviving
    operation. Uses the process-global fault registry: explore with
    [workers = 1]. *)

(** {1 Class-restricted primitives (E25)}

    The [Sync_prims] lock/semaphore functors instantiated over the
    deterministic runtime's recorded registers, so every protocol step
    is a scheduling point the explorers control. Exclusion is witnessed
    on a recorded register: any schedule that puts two tasks in the
    critical section together trips the check. *)

module Det_regs :
  Sync_prims.Regs.FULL with type t = Sync_platform.Detrt.reg

val bakery_excl : tasks:int -> rounds:int -> Detsched.t
(** Lamport bakery (RW registers, bounded timestamps), slot = task
    index. *)

val ticket_excl : tasks:int -> rounds:int -> Detsched.t
(** FAA ticket lock. *)

val naive_rw_excl : tasks:int -> rounds:int -> Detsched.t
(** The deliberately broken test-then-set RW "lock" — the control:
    exploration is expected to find its exclusion violation. *)

val ticket_sem_handoff : tasks:int -> Detsched.t
(** FCFS ticket semaphore handoff chain (budget 1); a lost wakeup would
    surface as a deterministic-runtime deadlock. *)

val mcs_excl : tasks:int -> rounds:int -> Detsched.t
(** MCS queue lock (E23), slot = task index; a dropped FIFO handoff
    would surface as a deterministic-runtime deadlock. *)

val clh_excl : tasks:int -> rounds:int -> Detsched.t
(** CLH queue lock (E23), slot = task index. *)

val qticket_excl : tasks:int -> rounds:int -> Detsched.t
(** Proportional-backoff ticket lock (E23); the backoff delay is pure
    computation, so the explored tree is the protocol's register
    traffic only. *)

val swap_excl : tasks:int -> rounds:int -> flips:int -> Detsched.t
(** The E27 hot-swap tier indirection ([Mutex.swap_to]'s protocol)
    modeled on recorded registers: workers acquire through the
    current-cell register (lock the cell, re-check the register, retry
    on a miss) while a flipper retiers it mid-run under the old cell's
    lock. Exploration certifies exclusion across the flip. *)

val swap_excl_norecheck : tasks:int -> rounds:int -> flips:int -> Detsched.t
(** The same protocol with the post-lock re-check removed — the broken
    control: exploration is expected to find the schedule where a
    worker enters through the stale cell while another enters through
    the new one. *)
