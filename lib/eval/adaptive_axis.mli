(** The E27 self-tuning axis: adaptive tier vs every static tier.

    For each problem x arrival-process x domain-count cell the same
    load target runs on every static platform tier and once on the
    adaptive tier ({!Sync_workload.Target.tier} [`Adaptive]), where a
    {!Sync_adaptive.Controller} retiers the hot-swappable mutex sites
    live from the contention probes. Probe tracing is enabled for every
    row — the controller needs it, so static rows pay the same
    observation overhead and tier-to-tier ratios stay honest.

    Claims (measured cells only): {!never_worst} — the adaptive row
    never falls below the worst static tier (blocking CI gate) — and
    {!win_rate} — the fraction of cells where it matches or beats the
    best static tier. The timer-wheel rows ({!wheel_rows}) price the
    [wheel] alarm clock's tick at 1k..1M pending alarms. *)

type row = {
  problem : string;
  mechanism : string;
  arrival : Sync_workload.Loadgen.arrival;
  domains : int;
  tier : string;  (** {!Sync_prims.Tier.name} *)
  cell : Cell.t;
}

type t = { rows : row list }

type spec = {
  cells : (string * string) list;  (** (problem, mechanism) pairs *)
  static_tiers : Sync_workload.Target.tier list;
  arrivals : Sync_workload.Loadgen.arrival list;
  domains : int list;
  rate_per_s : float;  (** open-loop aggregate arrival rate *)
  duration_ms : int;
  warmup_ms : int;
  seed : int;
  never_worst_slack : float;
      (** noise allowance on {!never_worst}: adaptive must reach this
          fraction of the worst static tier's throughput *)
  win_slack : float;
      (** allowance on {!win_rate}: reaching this fraction of the best
          static tier counts as a match *)
}

val default_spec : unit -> spec
(** Bounded buffer / readers-writers / alarm-wheel under poisson,
    diurnal and bursty arrivals at 4 domains; default / fast /
    MCS-queue static tiers; short [SYNC_LOAD_MS]-scalable windows. *)

val run : ?progress:(row -> unit) -> spec -> t
(** Execute the grid; [progress] sees each row as it lands. *)

val all_ok : t -> bool

val never_worst : slack:float -> t -> bool
(** [true] iff at least one cell measured and the adaptive row reaches
    [slack] of the worst static tier's throughput in every fully
    measured cell. *)

val win_rate : slack:float -> t -> float
(** Fraction of fully measured cells where the adaptive row reaches
    [slack] of the best static tier's throughput. *)

val row_doc : row -> Sync_metrics.Bench_doc.row
(** The row as written to the document, with its flips. *)

(** {1 Timer-wheel scaling} *)

type wheel_row = {
  pending : int;
  add_ns_per_alarm : float;
  tick_ns : float;
  intact : bool;
      (** no alarm fired or went missing inside the timed window *)
}

val wheel_rows : unit -> wheel_row list
(** Per-tick cost with 1k, 10k, 100k and 1M alarms pending, none due
    inside the timed window. *)

val wheel_ratio : wheel_row list -> float
(** Max over min per-tick cost across the populations. *)

val to_json : ?wheel:wheel_row list -> spec -> t -> Sync_metrics.Emit.t
(** The committed [BENCH_E27.json] document: the grid rows, then one row
    per [wheel] population (coordinate ["pending"]) when given. *)
