(** E23: the epoch read path, measured — the scaling axis.

    The readers-writers database on the {!Sync_problems.Rw_epoch}
    read-mostly path (plus reference mechanisms) at increasing domain
    counts under closed-loop think time, on the default tier. E23's
    queue-lock rows are a selection of the tier grid ({!Grid}). The
    full run adds the timer-wheel rows ({!wheel_rows}), which price the
    [wheel] alarm clock's tick at 1k..1M pending alarms. *)

type spec = {
  mechanisms : string list;
  domains : int list;
  think_us : int;  (** closed-loop think time *)
  read_pct : int;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
}

val spec : full:bool -> spec
(** Full: epoch and semaphore at 1/2/4 domains; quick: epoch at 1 and
    4 domains. 500 us think time, 95% reads; duration honors
    [SYNC_LOAD_MS] (default 150 ms). *)

val run : ?progress:(Cell.row -> unit) -> spec -> Cell.row list

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

val to_json :
  ?wheel:wheel_row list -> spec -> Cell.row list -> Sync_metrics.Emit.t
(** The committed [BENCH_E23.json] document: one row per cell, with
    [read_per_s] (read-op completions per second) beside the cell's
    metrics, then one row per [wheel] population (coordinate
    ["pending"]) when given; [epoch_monotonic], and with wheel rows
    [tick_cost_max_over_min], in the summary. *)

val epoch_monotonic : Sync_metrics.Emit.t -> bool
(** The tentpole claim on a document's supported rows: the ["epoch"]
    rows' read throughput strictly increases across their sorted domain
    counts (false when fewer than two exist). The gate reads both the
    live document and the committed one through it. *)
