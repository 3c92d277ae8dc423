(** Domain-scaling sweeps and the E20/E22 grids.

    A sweep re-runs one mechanism x problem target at increasing worker
    counts (fresh instance per cell, identical seed and windows) so the
    scaling shape — and the point where a mechanism's tail collapses
    under contention — is measured rather than argued. {!grid} runs the
    full mechanism grid behind [BENCH_E20.json] (and, on two tiers,
    [BENCH_E22.json]), the repo's first recorded performance
    trajectory. *)

type cell = { domains : int; report : Report.t }

val default_domain_counts : unit -> int list
(** [1; 2; 4] plus [Domain.recommended_domain_count ()], sorted,
    deduplicated. *)

val run :
  ?params:Target.params -> ?tier:Target.tier -> ?progress:(cell -> unit) ->
  problem:string -> mechanism:string -> base:Loadgen.config ->
  domain_counts:int list -> unit -> (cell list, string) result
(** Run the target once per domain count ([base] with [workers] set to
    the count). [tier] selects the platform substrate (default
    [`Default]); [progress] fires after each cell. *)

(** Specification of a full baseline grid. *)
type baseline_spec = {
  mechanisms : string list;
  problems : string list;
  domain_counts : int list;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
  params : Target.params;
  tiers : Target.tier list;  (** every cell runs once per tier *)
}

val default_baseline_spec : unit -> baseline_spec
(** Six full-coverage mechanisms x {bounded-buffer, readers-writers,
    fcfs} x domain counts [1; 2; 4] on the default tier; per-cell
    steady window from [SYNC_LOAD_MS] (default 150 ms), closed loop on
    the domain backend. *)

val default_e22_spec : unit -> baseline_spec
(** The E20 spec on tiers [[`Default; `Fast]], narrowed to domain
    counts [1; 4] with eventcount added to the mechanism list; 1 domain
    captures the uncontended fast-path cost, 4 the contended win. *)

val grid :
  ?progress:(cell -> unit) -> baseline_spec -> (cell list, string) result
(** Run every cell of the grid (problem-major, then mechanism, then
    tier, then domain count) with identical seed and windows. Pairs
    the workload engine does not offer (e.g. eventcount
    readers-writers) are skipped; any other per-cell failure aborts the
    grid. *)
