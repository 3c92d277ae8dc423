(** One measured load cell — the unit every grid axis (E23, E25, E27)
    and every perf gate is made of.

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
  flips : int;  (** adaptive-controller flips during the run; 0 otherwise *)
}

val measure :
  ?params:Sync_workload.Target.params -> ?tier:Sync_workload.Target.tier ->
  ?traced:bool -> problem:string -> mechanism:string ->
  Sync_workload.Loadgen.config -> t
(** Build the target on [tier] (default [`Default]) and run it once
    under [config]. [traced] (default false) records probe events for
    the run; the [`Adaptive] tier is always traced and runs under a
    live {!Sync_adaptive.Controller}. *)

val ok : t -> bool
(** Not [Failed]: [Unsupported] is a valid scorecard outcome. *)

val status_string : status -> string

val doc :
  ?extra:(string * float) list -> (string * Sync_metrics.Emit.t) list -> t ->
  Sync_metrics.Bench_doc.row
(** One document row at the given coords: throughput and the p50/p99
    ladder (then [extra]) when supported, no metrics otherwise. *)

(** {1 Tier grids} *)

type row = {
  tier : Sync_prims.Tier.t;
  problem : string;
  mechanism : string;
  domains : int;  (** worker domains; [0] on a pair that never ran *)
  cell : t;
}

val grid :
  ?progress:(row -> unit) -> tiers:Sync_prims.Tier.t list ->
  problems:string list -> mechanisms:(string -> string list) ->
  domains:int list -> Sync_workload.Loadgen.config -> row list
(** Tier-major (then problem, mechanism, domain count) closed grid with
    [config]'s windows and seed; [mechanisms problem] lists the row's
    mechanisms. A pair the workload engine does not offer, or that the
    tier cannot build, is one typed row with [domains = 0] instead of
    one per domain count. *)

val row_doc : row -> Sync_metrics.Bench_doc.row
(** {!doc} at coords tier ({!Sync_prims.Tier.name}), problem, mechanism,
    domains. *)

