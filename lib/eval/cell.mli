(** One measured load cell — the unit every load grid (the tier grid,
    E23's epoch rows) and every perf gate is made of.

    A cell builds one mechanism x problem load target on one platform
    tier and drives it with the E20 workload engine. The outcome is
    always typed, never an exception: a tier that cannot express a
    primitive the mechanism needs is [Unsupported] (a result), a run
    that errors or trips a self-checking resource is [Failed] (a bug). *)

type status = Sync_metrics.Bench_doc.status =
  | Supported
  | Unsupported of { feature : string; reason : string }
      (** the target cannot be built on this tier, and why *)
  | Failed of string  (** ran but violated a resource check, or errored *)

type t = {
  status : status;
  throughput_per_s : float;  (** [0.] unless [Supported] *)
  p50_ns : int;
  p99_ns : int;
  summary : Sync_metrics.Summary.t option;  (** [Some] iff [Supported] *)
}

val measure :
  ?params:Sync_workload.Target.params -> ?tier:Sync_workload.Target.tier ->
  ?traced:bool -> problem:string -> mechanism:string ->
  Sync_workload.Loadgen.config -> t
(** Build the target on [tier] (default [`Default]) and run it once
    under [config]. [traced] (default false) records probe events for
    the run. *)

val ok : t -> bool
(** Not [Failed]: [Unsupported] is a valid scorecard outcome. *)

val status_string : status -> string

val doc :
  ?extra:(string * float) list -> (string * Sync_metrics.Emit.t) list -> t ->
  Sync_metrics.Bench_doc.row
(** The one row builder: at the given coords, when supported,
    throughput, total ops and failures, the overall p50/p95/p99/p999/max
    ladder and every per-op field ({!Sync_metrics.Bench_doc.per_op}),
    then [extra]; no metrics otherwise. *)

val coverage_errors : unit -> string list
(** For every (problem, mechanism) pair the workload engine offers,
    instantiate it and look its metadata up in {!Registry.all}; returns
    one message per pair that is {e not} a registered solution (must be
    empty — asserted by tests). *)

(** {1 Grids} *)

type row = {
  tier : Sync_prims.Tier.t;
  problem : string;
  mechanism : string;
  domains : int;  (** worker domains; [0] on a pair that never ran *)
  cell : t;
}

val grid :
  ?params:Sync_workload.Target.params -> ?progress:(row -> unit) ->
  targets:(Sync_prims.Tier.t * string * string) list -> domains:int list ->
  Sync_workload.Loadgen.config -> row list
(** Each (tier, problem, mechanism) target in order, once per domain
    count, with [config]'s windows, mode and seed. A pair the workload
    engine does not offer, or that the tier cannot build, is one typed
    row with [domains = 0] instead of one per domain count. *)

val row_doc : ?extra:(string * float) list -> row -> Sync_metrics.Bench_doc.row
(** {!doc} at coords tier ({!Sync_prims.Tier.name}), problem, mechanism,
    domains, and [oversubscribed: true] when [domains] exceeds this
    process's recommended domain count: such a row measures how the box
    shares its cores, not only the mechanism. *)
