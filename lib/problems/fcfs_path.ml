(** FCFS with a path expression: [path use end] serializes, and — under
    the paper's Section 5.1 assumption that selection admits the
    longest-waiting process — the implicit semaphore queue supplies the
    request-time ordering. Without that assumption the scheme is not
    expressible in the classic dialect, which is exactly the paper's
    point about request-time information in paths. *)

open Sync_taxonomy

type t = { sys : Sync_pathexpr.Pathexpr.t; res_use : pid:int -> unit }

let mechanism = "pathexpr"

(* parsed once; [create] only compiles *)
let spec = Sync_pathexpr.Parser.parse "path use end"

let create ~use =
  { sys = Sync_pathexpr.Pathexpr.compile spec; res_use = use }

let use t ~pid =
  Sync_pathexpr.Pathexpr.run t.sys "use" (fun () -> t.res_use ~pid)

let stop _ = ()

let meta =
  Meta.make ~mechanism ~problem:"fcfs"
    ~fragments:
      [ ("fcfs-exclusion", [ "path"; "use"; "end" ]);
        ("fcfs-order", [ "longest-waiting"; "selection"; "assumption" ]) ]
    ~info_access:
      [ (Info.Sync_state, Meta.Indirect); (Info.Request_time, Meta.Indirect) ]
    ~separation:Meta.Enforced ()
