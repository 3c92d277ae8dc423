(** The tier grid: one measured document, [BENCH_GRID.json], behind
    E20 (mechanisms on the default tier), E22 (default vs fast), E23's
    queue-lock rows and E25 (restricted atomic classes).

    Every row is one {!Cell} on one tier, built by {!Cell.grid} and
    written by {!Cell.row_doc}, with one steady window and seed
    recorded in the header. The four experiments are named selections
    of the same rows, so a cell measured for one of them is the cell
    the others read. *)

val file : string
(** ["BENCH_GRID.json"]. *)

val selections : (string * Sync_prims.Tier.t list) list
(** E20, E22, E23 and E25 as the tiers each selects. E25's default
    rows are the unrestricted twin its ratios anchor on. *)

val select : string -> Sync_metrics.Emit.t -> Sync_metrics.Emit.t list
(** The supported rows of a named selection, tier by tier in the
    selection's order. *)

val run : full:bool -> progress:(Cell.row -> unit) -> Cell.row list
(** Every target on tiers default, fast, mcs, clh, ticket, rw, cas, faa
    and llsc. On every tier but the queue locks the targets are
    bounded-buffer, readers-writers and fcfs, each with every mechanism
    the workload engine offers for it except epoch (built from raw
    atomics and a stdlib mutex, so no tier reaches it; E23's epoch rows
    measure it). On the queue-lock tiers they are bounded-buffer and
    readers-writers over semaphore, monitor, ccr, eventcount and epoch,
    where the two absent pairs are typed rows. Full runs each target at
    1, 2 and 4 domains; quick at 1, plus the multi-domain cells of the
    drift gate ({!Baseline.sanity}). Closed loop on domains, the
    [SYNC_LOAD_MS] window (default 150 ms), a warmup of 50 ms or the
    window if shorter ({!Sync_workload.Loadgen.warmup_for}), seed 42. *)

val document : full:bool -> Cell.row list -> Sync_metrics.Emit.t

val pp_speedups : Format.formatter -> Sync_metrics.Emit.t -> unit
(** Fast-over-default throughput per E22 cell that has both tiers. *)
