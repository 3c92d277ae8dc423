(** Deterministic cooperative runtime (the [`Det] process backend).

    Runs a whole concurrent scenario as virtual tasks — OCaml 5 effect
    fibers — multiplexed on the calling thread. Context switches happen
    only at the blocking primitives (mutex, condition, spawn/join,
    quiescence), and every scheduling decision is delegated to the
    [choose] callback, so an execution is a pure function of the scenario
    and the choice sequence: recording the choices makes any interleaving
    replayable byte-for-byte. Exploration strategies (seeded random walk,
    PCT priority fuzzing, bounded exhaustive DFS) live in [sync_detsched];
    this module is only the runtime.

    The platform's {!Mutex} and {!Condition} facades dispatch here when
    created during a run, which is what lets the {e real} mechanism
    implementations (monitors, serializers, path-expression engines, CCRs,
    CSP) execute unmodified under controlled schedules. Everything the
    scenario synchronizes on must therefore be created {e inside} the
    [run] body.

    Each object a run creates gets a packed int key at creation (see
    {!Obs.global}), and the {!Obs} narration is built only when [run] is
    given an observer. *)

exception Deadlock of string
(** No task can make progress and at least one is blocked. *)

exception Step_limit of int
(** The run exceeded [max_steps] scheduling decisions. *)

type task

(** Observable run events, for exploration engines that need to know
    {e what} each scheduling quantum did, not just which task ran. Object
    identities are per-run creation ordinals; creation order is itself
    schedule-determined, so ids are stable across replays of the same
    schedule and comparable across runs that share a prefix.

    Events are built only when [run] was given an [observe] callback: an
    unobserved run allocates none of them. *)
module Obs : sig
  type objid =
    | Mutex_o of int  (** a deterministic mutex *)
    | Cond_o of int  (** a deterministic condition variable *)
    | Task_o of int  (** a task's lifecycle (join/finish) *)
    | Reg_o of int  (** a deterministic integer register (E25 prims) *)
    | Global  (** scheduler-global effects: spawn, quiescence *)
  (** The decoded form of an object key, for printing and for folds
      that group ops by kind. *)

  type op =
    | Lock
    | Try_lock of bool  (** the recorded outcome of the attempt *)
    | Unlock
    | Wait
    | Signal
    | Broadcast
    | Spawn
    | Join
    | Finish
    | Quiesce
    | Read  (** register read *)
    | Write  (** register write *)
    | Rmw of bool  (** register CAS/FAA; the recorded success *)

  type event =
    | Choice of { kind : [ `Task | `Waiter ]; candidates : int array }
        (** emitted immediately before [choose] is consulted: a task pick
            in the scheduler, or a waiter pick on unlock/signal *)
    | Sched of { tid : int; runnable : int array }
        (** a task was dispatched (including forced, single-candidate
            dispatches, which never reach [choose]) — delimits quanta *)
    | Op of { tid : int; obj : int; op : op }
        (** a primitive operation inside the current quantum, on the
            object with packed key [obj] *)

  val global : int
  (** The key of the scheduler-global pseudo-object ([0]). Every other
      key packs the object's kind into its low two bits (task [0],
      mutex [1], condition [2], register [3]) over its ordinal, so keys
      are distinct per object, and equal keys mean the same object. The
      runtime computes an object's key once, when it creates it. *)

  val decode : int -> objid
  (** The object a key names. *)

  val objid_to_string : objid -> string
  (** ["m3"], ["c4"], ["t1"], ["r0"] or ["global"]. *)
end

val run :
  ?max_steps:int ->
  ?observe:(Obs.event -> unit) ->
  choose:(int array -> int) ->
  (unit -> unit) ->
  int
(** [run ~choose body] executes [body] as the main virtual task and
    schedules it and everything it spawns to completion; returns the
    number of scheduling steps taken. Whenever more than one continuation
    is possible, [choose] receives the candidate task ids and returns the
    index to run ([choose] is never called with fewer than two
    candidates). Each decision gets a fresh candidate array that the
    runtime never mutates, so [choose] and [observe] may keep it; the
    [Choice] event and, for a task pick, the following [Sched] carry
    that same array. [observe] receives the event narration of the run (see
    {!Obs}); it must not touch deterministic primitives itself.
    Re-raises the first exception escaping any task;
    raises {!Deadlock} / {!Step_limit} otherwise when stuck or runaway.
    Runs do not nest on a domain, but independent domains may each drive
    their own run concurrently (scheduler state is domain-local). *)

val active : unit -> bool
(** A deterministic run is in progress (creation-time dispatch). *)

val in_fiber : unit -> bool
(** The caller is executing inside a virtual task. *)

val spawn : ?name:string -> (unit -> unit) -> task
(** Start a new virtual task; a scheduling point. *)

val join : task -> unit
(** Block the calling task until [t] completes. *)

val yield : unit -> unit
(** Voluntary scheduling point; no-op outside a run. *)

val relax : unit -> unit
(** Give another task/thread a chance: {!yield} inside a run,
    [Thread.yield] outside. The polling step of the timed waits. *)

val self_info : unit -> (int * string) option
(** [(tid, name)] of the current virtual task; [None] outside a run.
    Also registered as the {!Deadlock} watchdog's task provider. *)

val await_quiescence : unit -> unit
(** Park the calling task until no other task is runnable — how the
    staged harnesses know their contenders are in place: "everyone else
    has either finished or parked". *)

val task_tid : task -> int

val task_name : task -> string

(** {1 Primitive building blocks used by the platform facades} *)

type mutex

type cond

val mutex : unit -> mutex

val cond : unit -> cond

val mutex_lock : mutex -> unit

val mutex_unlock : mutex -> unit

val mutex_try_lock : mutex -> bool
(** Deterministic non-blocking acquire: the attempt is itself a recorded
    scheduling point, so the outcome replays with the schedule. *)

val cond_wait : cond -> mutex -> unit

val cond_signal : cond -> unit

val cond_broadcast : cond -> unit

(** {1 Deterministic integer registers}

    The det face of the E25 primitive classes ([Sync_prims.Regs]): every
    access is a recorded scheduling point on a [Reg_o] object, so the
    class-restricted lock/semaphore algorithms — whose protocol steps
    {e are} register accesses — expose each interleaving to the
    exploration engines. *)

type reg

val reg : int -> reg
(** A fresh register with the given initial value. Create inside the
    run body (identities are per-run creation ordinals). *)

val reg_get : reg -> int

val reg_set : reg -> int -> unit

val reg_cas : reg -> int -> int -> bool
(** [reg_cas r seen v] installs [v] iff the value is [seen]; the attempt
    and its outcome are recorded. *)

val reg_faa : reg -> int -> int
(** Add and return the previous value. *)

val reg_await : watch:reg array -> (unit -> bool) -> unit
(** Deterministic level-triggered wait: parks the task until a write to
    a register in [watch] wakes it and the predicate holds. [pred] must
    only read registers in [watch]. Spinning is never recorded, so
    schedule trees stay finite, and a lost wakeup surfaces as a
    {!Deadlock} at the end of the run. *)
