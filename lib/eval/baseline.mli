(** The committed [BENCH_E2x.json] documents as gate baselines: which
    cells the perf-sanity gate re-measures, and how far a live
    throughput ratio may drift from the committed one. The documents
    are read through {!Sync_metrics.Bench_doc}. *)

(** {1 The perf-sanity table} *)

type probe = {
  tier : Sync_prims.Tier.t;
  problem : string;
  mechanism : string;
  domains : int;
  arrival : Sync_workload.Loadgen.arrival option;
      (** [Some]: the E27 measurement — open loop at the E27 rate, traced
          on every tier; [None]: closed loop, untraced *)
}

type group = {
  file : string;  (** committed document, relative to the repo root *)
  probes : probe list;  (** cross-ratio checked against each other *)
}

val sanity : group list
(** One group per committed grid the sanity gate covers (E20, E22, E25,
    E23, E27): a few cheap cells each, chosen so the ratios inside a
    group compare mechanisms, tiers, atomic classes or queue kinds. *)

val coords : probe -> (string * Sync_metrics.Emit.t) list
(** The probe's coordinates in its group's document. *)

val id : probe -> string

val measure : duration_ms:int -> probe -> Cell.t

(** {1 The drift gate} *)

val drift_factor : float
(** How far a live cell-to-cell throughput ratio may drift from the
    committed one, either way, before perf-sanity fails: a fixed guess,
    not yet derived from a measured spread. *)

type pair = {
  a : string;
  b : string;
  live_ratio : float;
  base_ratio : float;
  drift : float;  (** [max r (1/r)] of live over baseline ratio *)
  ok : bool;
}

val drift : factor:float -> (string * float * float) list -> pair list
(** Every pair of [(id, live, baseline)] throughputs, in order. A pair
    fails when its drift exceeds [factor], and whenever any of its four
    throughputs is non-positive or not finite — a cell that measured
    nothing never passes by way of a 0/0 ratio. *)
