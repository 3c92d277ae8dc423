open Sync_metrics
open Sync_workload
module Prims = Sync_prims.Prims

type spec = {
  classes : Prims.cls list;
  problems : string list;
  mechanisms : string list option;
  domains : int list;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
}

let default_spec () =
  { classes = Prims.all;
    problems = [ "bounded-buffer"; "fcfs"; "readers-writers" ];
    mechanisms = None;
    domains = [ 1; 4 ];
    duration_ms = Loadgen.duration_from_env ~default:100;
    warmup_ms = 30;
    seed = 42 }

(* The epoch readers-writers path is built from raw atomics and a stdlib
   mutex, so no class restriction reaches it: its rows would measure the
   native substrate under a restricted class's name. *)
let mechanisms_of spec problem =
  match spec.mechanisms with
  | Some ms -> ms
  | None -> List.filter (fun m -> m <> "epoch") (Target.mechanisms ~problem)

let run ?progress spec =
  Cell.grid ?progress
    ~tiers:(List.map (fun c -> `Prim c) spec.classes)
    ~problems:spec.problems ~mechanisms:(mechanisms_of spec)
    ~domains:spec.domains
    { Loadgen.default_config with
      duration_ms = spec.duration_ms; warmup_ms = spec.warmup_ms;
      seed = spec.seed }

let all_ok rows = List.for_all (fun (r : Cell.row) -> Cell.ok r.cell) rows

let cls_doc = function
  | Prims.RW -> "atomic read/write registers only (bakery)"
  | Prims.CAS -> "compare-and-swap only"
  | Prims.FAA -> "fetch-and-add only (ticket)"
  | Prims.LLSC -> "LL/SC emulated from CAS with ABA tags"
  | Prims.Native -> "unrestricted platform substrate"

let pp =
  Cell.pp_grid ~header:(function
    | `Prim c ->
      Printf.sprintf "class %-6s — %s" (Prims.cls_name c) (cls_doc c)
    | t -> Sync_prims.Tier.name t)

let to_json spec rows =
  Emit.Obj
    [ ("experiment", Emit.Str "E25");
      ("description",
       Emit.Str
         "hardware-primitive hierarchy: every mechanism x problem target \
          run unmodified on restricted atomic classes (rw/cas/faa/llsc \
          vs native); unsupported cells carry typed reasons");
      ("mode", Emit.Str "closed");
      ("backend", Emit.Str "domain");
      ("duration_ms", Emit.Int spec.duration_ms);
      ("warmup_ms", Emit.Int spec.warmup_ms);
      ("seed", Emit.Int spec.seed);
      ("ocaml", Emit.Str Sys.ocaml_version);
      ("recommended_domains", Emit.Int (Domain.recommended_domain_count ()));
      ("classes",
       Emit.List
         (List.map (fun c -> Emit.Str (Prims.cls_name c)) spec.classes));
      ("problems", Emit.List (List.map (fun p -> Emit.Str p) spec.problems));
      ("domain_counts", Emit.List (List.map (fun d -> Emit.Int d) spec.domains));
      ("rows", Emit.List (List.map (Cell.row_json ~tier_key:"class") rows)) ]
