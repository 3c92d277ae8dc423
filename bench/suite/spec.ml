(* The metric declarations in BENCHMARK.json: names, units, direction
   and, for end-to-end metrics, the regression bound. [compare] judges
   with them and [smoke] checks the suite emits exactly them. *)

module Emit = Sync_metrics.Emit

type decl = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float;  (** share of the parent's median; [nan] for per-layer *)
}

type t = { workloads : string list; end_to_end : decl list; per_layer : decl list }

let path = "BENCHMARK.json"

let str k v = match Emit.member k v with Some (Emit.Str s) -> s | _ -> ""

let decls key doc =
  Emit.to_list (Option.value (Emit.member key doc) ~default:Emit.Null)
  |> List.map (fun d ->
         { name = str "name" d;
           unit_ = str "unit" d;
           higher_is_better = str "better" d = "higher";
           bound =
             Option.value (Option.bind (Emit.member "bound" d) Emit.number)
               ~default:nan })

let read () =
  let doc = Emit.parse_file path in
  { workloads =
      List.map (str "name")
        (Emit.to_list (Option.value (Emit.member "workloads" doc) ~default:Emit.Null));
    end_to_end = decls "end_to_end" doc;
    per_layer = decls "per_layer" doc }
