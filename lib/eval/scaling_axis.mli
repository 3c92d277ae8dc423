(** E23: the epoch read path, measured — the scaling axis.

    The readers-writers database on the {!Sync_problems.Rw_epoch}
    read-mostly path (plus reference mechanisms) at increasing domain
    counts under closed-loop think time, on the default tier. E23's
    queue-lock rows are a selection of the tier grid ({!Grid}). *)

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

val to_json : spec -> Cell.row list -> Sync_metrics.Emit.t
(** The committed [BENCH_E23.json] document: one row per cell, with
    [read_per_s] (read-op completions per second) beside the cell's
    metrics; [epoch_monotonic] in the summary. *)

val epoch_monotonic : Sync_metrics.Emit.t -> bool
(** The tentpole claim on a document's supported rows: the ["epoch"]
    rows' read throughput strictly increases across their sorted domain
    counts (false when fewer than two exist). The gate reads both the
    live document and the committed one through it. *)
