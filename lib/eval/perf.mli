(** The quantitative performance axes: E20 (the closed-loop mechanism
    grid behind [BENCH_E20.json]) and E22 (the same grid on the default
    and fast substrate tiers, [BENCH_E22.json]).

    The paper stops at "serializers provide more mechanism ... at more
    cost"; these axes measure the cost. The grid itself is
    {!Sync_workload.Sweep.grid}; this module writes its document.

    Every target the workload engine can drive corresponds to an entry
    of {!Registry.all}; {!coverage_errors} machine-checks that claim. *)

val cell_row : Sync_workload.Sweep.cell -> Sync_metrics.Bench_doc.row
(** One grid cell as a document row: throughput, the latency ladder and
    every per-op field. *)

val sweep_doc :
  problem:string -> mechanism:string -> base:Sync_workload.Loadgen.config ->
  Sync_workload.Sweep.cell list -> Sync_metrics.Emit.t
(** One target's domain sweep ([bloom_eval load --sweep --json]). *)

val coverage_errors : unit -> string list
(** For every (problem, mechanism) pair the workload engine offers,
    instantiate it and look its metadata up in {!Registry.all}; returns
    one message per pair that is {e not} a registered solution (must be
    empty — asserted by tests). *)

val pp_speedups : Format.formatter -> Sync_workload.Sweep.cell list -> unit
(** Fast-over-default throughput per cell that has both tiers. *)
