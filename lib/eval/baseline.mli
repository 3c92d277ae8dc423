(** The committed documents as gate baselines: which cells the drift
    gate reads, and how far a live throughput ratio may drift from the
    committed one. The documents are read through
    {!Sync_metrics.Bench_doc}. *)

(** {1 The drift table} *)

type probe = {
  tier : Sync_prims.Tier.t;
  problem : string;
  mechanism : string;
  domains : int;
}
(** A closed-loop, untraced grid cell. *)

type group = {
  name : string;  (** the selection the probes lie in, e.g. ["E25"] *)
  file : string;  (** committed document, relative to the repo root *)
  probes : probe list;  (** cross-ratio checked against each other *)
}

val sanity : group list
(** A few cheap cells per selection of the tier grid (E20, E22, E25,
    E23, all in [BENCH_GRID.json]), chosen so the ratios inside a group
    compare mechanisms, tiers, atomic classes or queue kinds. *)

val coords : probe -> (string * Sync_metrics.Emit.t) list
(** The probe's coordinates in its group's document. *)

val id : probe -> string

(** {1 The drift gate} *)

val drift_factor : float
(** How far a live cell-to-cell throughput ratio may drift from the
    committed one, either way, before the gate fails: a fixed guess,
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

val gate :
  file:string -> Sync_metrics.Emit.t ->
  (Format.formatter -> unit) * (string * bool) list
(** Judge a live document against the committed [file] (read from the
    working directory) over every {!sanity} group of that file: a
    report of each probe's live and committed throughput and each
    pair's drift, and one gate per group, which fails when a pair
    drifts more than {!drift_factor} or a probe is missing or not
    supported on either side. An unreadable [file] is one failed
    gate. *)
