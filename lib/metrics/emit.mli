(** Machine-readable emission: a minimal JSON document model plus CSV row
    quoting.

    The repo deliberately avoids external JSON dependencies; every
    machine-readable artifact (run reports, the E20 baseline, the
    scorecard export) is built from this value type and printed with
    {!to_string} / {!write_file}. Output is deterministic: object fields
    print in the order given, floats print in a fixed format, and
    non-finite floats degrade to [null] so the documents always parse. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Render as JSON. [pretty] (default true) indents nested structures
    two spaces per level; compact otherwise. *)

val strings : string list -> t
(** A {!List} of {!Str}. *)

val ints : int list -> t
(** A {!List} of {!Int}. *)

val write_file : string -> t -> unit
(** Write [to_string ~pretty:true] plus a trailing newline to a file,
    creating or truncating it. *)

val csv_line : string list -> string
(** One CSV record: fields are quoted when they contain commas, quotes
    or newlines; embedded quotes are doubled. No trailing newline. *)

exception Parse_error of string

val parse : string -> t
(** Read a JSON document back into the value type. Covers what this
    module emits (and standard JSON generally): objects, arrays, strings
    with escapes ([\uXXXX] decoded to UTF-8; astral surrogate pairs are
    not recombined), numbers, booleans, null. Numbers without [.]/[e]
    parse as {!Int} when they fit. Raises {!Parse_error} on malformed
    input. *)

val parse_file : string -> t
(** {!parse} the entire contents of a file. *)

val member : string -> t -> t option
(** [member key v] is the field [key] of object [v], if both exist. *)

val to_list : t -> t list
(** Elements of a {!List}; [[]] for any other value. *)

val number : t -> float option
(** Numeric value of an {!Int} or {!Float}; [None] otherwise. *)
