(** One-call rendering of the full evaluation (the paper's Section 5
    deliverable, regenerated from the artifact): the four deterministic
    sections — expressiveness matrix and its agreement with the paper
    (E3), constraint independence (E4), modularity (E5) and the
    conformance run (E6) — followed by any live axes from the
    {!Axis.all} registry (E19–E27) the caller asks for, each run at its
    quick size. *)

type t = {
  matrix : Expressiveness.t;
  discrepancies : (string * Sync_taxonomy.Info.kind * string) list;
  pairings : Independence.pairing list;
  reuse : (string * float) list;
  modularity : Modularity.row list;
  conformance : Conformance.result list;
  axes : (Axis.t * Axis.outcome) list;  (** in the order requested *)
}

val build : ?run_conformance:bool -> axes:Axis.t list -> unit -> t
(** Computes everything from {!Registry.all}. [run_conformance] (default
    true) actually executes the workload checks; disable for fast
    metadata-only views. Each of [axes] runs once, quick
    ([~full:false]), silently. *)

val ok : t -> bool
(** The matrix agrees with the paper, conformance has no regressions,
    and every axis outcome is [ok]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val to_json : t -> Sync_metrics.Emit.t
(** The whole scorecard as one JSON document — what [bloom_eval
    scorecard --json] writes. The deterministic sections appear even
    when empty (as [[]]) so consumers can rely on the shape; ["axes"]
    maps each requested axis name to its standalone document. *)
