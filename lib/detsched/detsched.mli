(** Deterministic-schedule exploration (the harness over {!Sync_platform.Detrt}).

    A {e scenario} packages a concurrent workload together with its
    invariant check. [make] runs {e inside} the deterministic run body, so
    every mutex, condition, semaphore and trace the mechanism creates
    dispatches to the virtual runtime; [check] runs after the schedule has
    fully unwound and feeds the recorded trace to the existing checkers in
    [sync_problems].

    Every run records its choice sequence as a {!Schedule.t}; the same
    schedule (or the same strategy seed) replays the execution
    byte-for-byte. Strategies: seeded random walk, PCT-style priority
    fuzzing, bounded exhaustive DFS. Failing schedules can be shrunk to a
    canonical small counterexample. *)

module Schedule : sig
  type entry = { alts : int; chosen : int }
  (** One recorded decision: [chosen] of [alts] candidates ([alts >= 2];
      forced moves are not recorded). *)

  type t = entry array

  val length : t -> int

  val choices : t -> int array
  (** Just the chosen indices. *)

  val to_string : t -> string
  (** ["1/3,0/2,..."], or ["-"] for the empty schedule. Inverse of
      {!of_string}. *)

  val of_string : string -> t
  (** @raise Invalid_argument on malformed input, naming the offending
      token. *)
end

type outcome = {
  schedule : Schedule.t;  (** the recorded decisions, replayable *)
  steps : int;  (** scheduling steps taken by the runtime *)
  result : (unit, exn) result;
      (** [Error] holds the first escaped exception, including
          {!Sync_platform.Detrt.Deadlock} / [Step_limit]. *)
}

type instance = {
  body : unit -> unit;  (** the workload, run as the main virtual task *)
  check : unit -> (unit, string) result;
      (** invariant check, called after the run completes normally *)
}

type t = { name : string; descr : string; make : unit -> instance }

val scenario : name:string -> descr:string -> (unit -> instance) -> t

type verdict = {
  outcome : outcome;
  verdict : (unit, string) result;
      (** [Ok] iff the run completed and the instance check passed *)
}

val verdict_ok : verdict -> bool

val verdict_message : verdict -> string

(** {1 Pickers} *)

type pick = int array -> int
(** A strategy: candidate task ids in, index to run out. Consulted only
    when at least two candidates exist. *)

val random_pick : seed:int -> pick
(** Seeded uniform random walk ({!Sync_platform.Prng}; independent of the
    global [Random] state). *)

val pct_pick : ?change_points:int -> ?horizon:int -> seed:int -> unit -> pick
(** PCT-style priority fuzzing: random per-task priorities, highest runs;
    at [change_points] pre-sampled decision indices (within [horizon]) the
    current leader is demoted below everyone. *)

val replay_pick : ?strict:bool -> Schedule.t -> pick
(** Replay a recorded schedule; decisions past the end take alternative 0.
    Under [strict] (default) a mismatch in the number of alternatives
    raises — the scenario diverged from the recording. *)

val choices_pick : int array -> pick
(** Replay from bare choice indices, clamping out-of-range values; used by
    DFS prefixes and shrinking. *)

(** {1 Running} *)

val run :
  ?max_steps:int ->
  ?observe:(Sync_platform.Detrt.Obs.event -> unit) ->
  pick:pick ->
  t ->
  verdict
(** [observe] taps the runtime's event narration (see
    {!Sync_platform.Detrt.Obs}); the DPOR engine is its main consumer. *)

val run_random : ?max_steps:int -> seed:int -> t -> verdict

val run_pct :
  ?max_steps:int -> ?change_points:int -> ?horizon:int -> seed:int -> t ->
  verdict

val replay : ?max_steps:int -> ?strict:bool -> t -> Schedule.t -> verdict

type sample_report = {
  runs : int;  (** runs actually performed *)
  strategy : [ `Random | `Pct ];
      (** the strategy the sample (and so any failing seed) used *)
  failure : (int * verdict) option;  (** first failing seed, if any *)
}

val sample :
  ?max_steps:int -> ?runs:int -> ?base_seed:int ->
  ?strategy:[ `Random | `Pct ] -> t -> sample_report
(** Run consecutive seeds [base_seed, base_seed+1, ...], stopping at the
    first failure. *)

type dfs_report = {
  explored : int;
  complete : bool;  (** the whole schedule tree was visited *)
  failures : (Schedule.t * string) list;  (** capped at [max_failures] *)
  deepest : int;  (** longest recorded schedule, in decisions *)
  secs : float;  (** wall time spent exploring *)
  per_sec : float;  (** explored schedules per second *)
}

val explore_dfs :
  ?max_steps:int -> ?max_schedules:int -> ?max_failures:int -> t -> dfs_report
(** Bounded exhaustive search over all schedules by prefix replay
    (stateless-model-checking style, no partial-order reduction). *)

type dpor_report = {
  explored : int;
  complete : bool;
      (** every Mazurkiewicz-trace equivalence class was covered (subject
          to [max_steps], like DFS) *)
  failures : (Schedule.t * string) list;  (** capped at [max_failures] *)
  failed : int;
      (** explored runs that failed, uncapped: equals [explored] when every
          class fails *)
  deepest : int;
  races : int;  (** reversible races that planted backtrack points *)
  redundant : int;
      (** runs whose whole frontier was asleep (pure sleep-set overhead) *)
  workers : int;  (** domains actually used *)
  secs : float;
  per_sec : float;
}

val explore_dpor :
  ?max_steps:int ->
  ?max_schedules:int ->
  ?max_failures:int ->
  ?workers:int ->
  t ->
  dpor_report
(** Dynamic partial-order reduction (Flanagan–Godefroid with sleep sets)
    over the same schedule tree as {!explore_dfs}: explores at least one
    representative of every dependency-equivalence class of schedules, so
    on deterministic scenarios it reports the same set of distinct
    failure messages as a complete DFS while exploring strictly fewer
    schedules whenever any two quanta commute. Dependency is derived from
    the runtime's {!Sync_platform.Detrt.Obs} stream: two quanta conflict
    iff they touch a common synchronization object (or either performs a
    scheduler-global op). Waiter-handoff decisions are always fully
    expanded.

    [workers > 1] partitions the top-level backtrack frontier across that
    many domains (the E20 engine's domain plumbing); results merge
    deterministically. Scenarios that rely on process-global mutable
    registries (fault plans, the deadlock watchdog) must keep
    [workers = 1]. [max_schedules] is a shared budget across workers.

    @raise Failure if the scenario is not schedule-deterministic. *)

type shrink_report = {
  shrunk : Schedule.t;  (** canonical failing schedule *)
  message : string;  (** its failure message *)
  attempts : int;  (** replays spent *)
}

val shrink : ?max_steps:int -> ?budget:int -> t -> Schedule.t -> shrink_report
(** Greedy minimization of a failing schedule: shortest failing prefix,
    then zero out non-default choices to a fixpoint, within [budget]
    replays. @raise Invalid_argument if [failing] does not fail. *)
