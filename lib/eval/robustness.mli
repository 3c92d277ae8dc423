(** The robustness axis (E19): each mechanism x {bounded buffer,
    readers-priority readers-writers, FCFS} under injected aborts (real
    threads, deterministic fault plans) and cancellation/timeout storms
    (deterministic runtime: seeded random schedules plus one
    bounded-exhaustive DFS instance), with the existing trace checkers as
    the post-fault invariant. Also covers the platform's timed waits
    (mutex/semaphore/condition) under timeout storms. *)

type row = {
  mechanism : string;
  problem : string;
  scenario : string;
      (** ["aborts"], ["storm"], or ["dfs"] (the exhaustive storm) *)
  policy : string;  (** the mechanism's declared abort policy *)
  runs : int;
  recovered : int;  (** runs whose post-fault invariants all held *)
  detail : string;  (** first failure, or a summary when clean *)
}

val run : ?progress:(row -> unit) -> unit -> row list
(** Executes the full matrix: eight random-schedule seeds per storm
    scenario; the DFS instance is always explored up to its internal
    bounds. [progress] is called with each row as it completes (the
    matrix takes a while; default ignores). Deterministic: fault plans
    are seeded and the storm schedules derive from consecutive seeds,
    so a failing row's [detail] names the seed (or DFS schedule) that
    replays it. *)

val mixed_plan : body_sites:string list -> Sync_platform.Fault.plan
(** The matrix's seeded probabilistic plan: 5% aborts at [body_sites],
    4% at every mechanism's blocking site. *)

val all_recovered : row list -> bool

val progress_line : row -> string

val to_json : row list -> Sync_metrics.Emit.t
