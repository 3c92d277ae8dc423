(** One-slot buffer with a path expression: [path put ; get end].

    The showcase example of the mechanism: the entire synchronization
    scheme — alternation, exclusion, and the initial state — is the
    declaration itself. No auxiliary state, no procedures. This is the
    paper's canonical case of {e direct} history-information support. *)

open Sync_taxonomy

type t = {
  sys : Sync_pathexpr.Pathexpr.t;
  res_put : pid:int -> int -> unit;
  res_get : pid:int -> int;
}

let mechanism = "pathexpr"

(* parsed once; [create] only compiles *)
let spec = Sync_pathexpr.Parser.parse "path put ; get end"

let create ~put ~get =
  { sys = Sync_pathexpr.Pathexpr.compile spec;
    res_put = put; res_get = get }

let put t ~pid v =
  Sync_pathexpr.Pathexpr.run t.sys "put" (fun () -> t.res_put ~pid v)

let get t ~pid =
  Sync_pathexpr.Pathexpr.run t.sys "get" (fun () -> t.res_get ~pid)

let stop _ = ()

let meta =
  Meta.make ~mechanism ~problem:"one-slot-buffer"
    ~fragments:
      [ ("slot-alternation", [ "path"; "put;get"; "end" ]);
        ("slot-access-exclusion", [ "path"; "put;get"; "end" ]) ]
    ~info_access:
      [ (Info.History, Meta.Direct);
        (* The paper: paths' automatic mutual exclusion expresses exclusion
           constraints "although not of directly accessing synchronization
           state information". *)
        (Info.Sync_state, Meta.Indirect) ]
    ~separation:Meta.Enforced ()
