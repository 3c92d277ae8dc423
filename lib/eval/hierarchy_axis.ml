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

let to_json spec rows =
  Bench_doc.document ~experiment:"E25"
    ~description:
      "hardware-primitive hierarchy: every mechanism x problem target run \
       unmodified on restricted atomic classes (rw/cas/faa/llsc vs native); \
       unsupported cells carry typed reasons"
    ~params:
      ([ ("mode", Emit.Str "closed"); ("backend", Emit.Str "domain");
         ("duration_ms", Emit.Int spec.duration_ms);
         ("warmup_ms", Emit.Int spec.warmup_ms); ("seed", Emit.Int spec.seed) ]
      @ [ ("classes", Emit.strings (List.map Prims.cls_name spec.classes));
          ("problems", Emit.strings spec.problems);
          ("domain_counts", Emit.ints spec.domains) ])
    (List.map Cell.row_doc rows)
