(** The committed [BENCH_E2x.json] documents as gate baselines.

    Every committed grid is a list of row objects under one key
    (["rows"], ["queue_rows"], ["epoch_rows"]), each row a set of
    coordinate fields plus metrics. A row is found by a coordinate-subset
    match: every requested coordinate must be present and equal (numbers
    compare by value), and a row that carries a ["status"] field must be
    ["supported"]. The files are read as they are committed. *)

val load : string -> (Sync_metrics.Emit.t, string) result
(** Parse a committed document; the error names the file. *)

val select :
  Sync_metrics.Emit.t -> rows:string ->
  coords:(string * Sync_metrics.Emit.t) list -> Sync_metrics.Emit.t list
(** Every row under [rows] matching [coords], in document order. *)

val lookup :
  Sync_metrics.Emit.t -> rows:string ->
  coords:(string * Sync_metrics.Emit.t) list -> metric:string -> float option
(** [metric] of the first {!select} hit, if it has one. *)

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
  rows : string;
  tier_key : string option;
      (** row field holding {!Sync_prims.Tier.name}, if the grid has
          tiers *)
  probes : probe list;  (** cross-ratio checked against each other *)
}

val sanity : group list
(** One group per committed grid the sanity gate covers (E20, E22, E25,
    E23, E27): a few cheap cells each, chosen so the ratios inside a
    group compare mechanisms, tiers, atomic classes or queue kinds. *)

val coords : group -> probe -> (string * Sync_metrics.Emit.t) list
(** The probe's coordinates in [group]'s document. *)

val id : probe -> string

val measure : duration_ms:int -> probe -> Cell.t

(** {1 The drift gate} *)

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
