(** The live evaluation axes (E19–E26), one registry.

    Bloom scores every mechanism on the same axes; each live axis here
    is one entry with one way to run it. [bloom_eval axis NAME] runs an
    entry standalone (writing its JSON document with [--json]),
    [bloom_eval scorecard --axis NAME] appends it to the scorecard, and
    CI names the same entries. A quick run is the CI slice; a [full] run
    is the grid behind the committed [BENCH_*.json], whose shape its
    document reproduces. *)

type outcome = {
  ok : bool;  (** every gate the axis applies held *)
  pp : Format.formatter -> unit;  (** the human report and its verdict *)
  json : Sync_metrics.Emit.t;
      (** the standalone {!Sync_metrics.Bench_doc} document; its header's
          ["experiment"] is the entry's [experiment] *)
}

type t = {
  name : string;
  experiment : string;  (** e.g. ["E25"] *)
  title : string;
  run : full:bool -> progress:(string -> unit) -> outcome;
      (** [progress] sees one line per measured row as it lands *)
}

val all : t list

val find : string -> t option

val names : string list
