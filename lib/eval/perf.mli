(** The quantitative performance axes: E20 (the closed-loop mechanism
    grid behind [BENCH_E20.json]) and E22 (the same grid on the default
    and fast substrate tiers, [BENCH_E22.json]).

    The paper stops at "serializers provide more mechanism ... at more
    cost"; these axes measure the cost. The grids themselves are
    {!Sync_workload.Sweep.baseline} and {!Sync_workload.Sweep.e22}; this
    module renders their cells.

    Every target the workload engine can drive corresponds to an entry
    of {!Registry.all}; {!coverage_errors} machine-checks that claim. *)

val cell_line : Sync_workload.Sweep.cell -> string
(** One progress line: coordinates, throughput and p99. *)

val coverage_errors : unit -> string list
(** For every (problem, mechanism) pair the workload engine offers,
    instantiate it and look its metadata up in {!Registry.all}; returns
    one message per pair that is {e not} a registered solution (must be
    empty — asserted by tests). *)

val pp : Format.formatter -> Sync_workload.Sweep.cell list -> unit
(** Throughput and the latency ladder, one line per cell. *)

val pp_speedups : Format.formatter -> Sync_workload.Sweep.cell list -> unit
(** Fast-over-default throughput per cell that has both tiers. *)
