(** The one shape of every measured document: each committed
    [BENCH_E2x.json], every live-axis document and the service grid.

    {v
    {"header": {"experiment", "description", "ocaml",
                "recommended_domains", "params", "summary"},
     "rows": [{"coords": {...}, "metrics": {...}, "status": ...}]}
    v}

    [coords] holds the grid axes of one row; a tier, when the grid has
    one, is always under ["tier"] as [Sync_prims.Tier.name]. [metrics]
    is a flat name -> number object; a per-op summary flattens to
    ["<op>.<field>"]. [status] is ["supported"], or
    [{"unsupported": {"feature", "reason"}}], or [{"failed": error}].
    [params] are the knobs every row shares; [summary] holds the
    run-wide verdicts. This module writes the shape and reads it back,
    so no other code knows where rows or tiers live. *)

type status =
  | Supported
  | Unsupported of { feature : string; reason : string }
      (** the row's target cannot be built, and why *)
  | Failed of string  (** ran but violated a check, or errored *)

type row = {
  coords : (string * Emit.t) list;
  metrics : (string * float) list;
  status : status;
}

val row :
  ?status:status -> (string * Emit.t) list -> (string * float) list -> row
(** [status] defaults to [Supported]. *)

val status_string : status -> string
(** ["ok"], ["unsupported: <feature>"] or ["FAILED: <error>"]. *)

val per_op : Summary.t -> (string * float) list
(** Every per-op field of a summary as ["<op>.<field>"], ops in
    recorder order, fields in {!Summary.op_stats} order. *)

val document :
  experiment:string -> description:string ->
  ?params:(string * Emit.t) list -> ?summary:(string * Emit.t) list ->
  row list -> Emit.t
(** The header records this process's OCaml version and recommended
    domain count beside the caller's fields. *)

(** {1 Reading} *)

val validate : Emit.t -> string list
(** Every way [doc] departs from the shape: a missing header field, a
    row whose keys are not exactly [coords]/[metrics]/[status], a metric
    that is not a finite number, a malformed status, two rows with the
    same coords. [[]] when the document is well formed. *)

val load : string -> (Emit.t, string) result
(** Parse and {!validate} a document; the error names the file. *)

val header : string -> Emit.t -> Emit.t option
(** A header field. *)

val select : Emit.t -> coords:(string * Emit.t) list -> Emit.t list
(** Every supported row whose coords hold all of [coords] (numbers
    compare by value), in document order. *)

val lookup :
  Emit.t -> coords:(string * Emit.t) list -> metric:string -> float option
(** [metric] of the first {!select} hit, if it has one. *)

val coord : string -> Emit.t -> Emit.t option
(** A coordinate of a row. *)

val metric : string -> Emit.t -> float option
(** A metric of a row. *)

(** {1 Rendering} *)

val pp : Format.formatter -> Emit.t -> unit
(** A document as a table: one column per coordinate and per metric
    (per-op fields left out), then the status; then the summary, one
    field a line. *)

val row_line : row -> string
(** One row on one line: coordinate values, metrics (per-op fields
    left out), status. *)
