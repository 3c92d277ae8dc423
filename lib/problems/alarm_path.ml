(** Alarm clock with path expressions — again by synchronization
    procedures (the paper cites exactly this example from Habermann's
    path-expression report [11]): the paths only serialize the clock
    bookkeeping; deadlines live in an explicit schedule with a private
    gate per sleeper. *)

open Sync_platform
open Sync_taxonomy
module P = Sync_pathexpr.Pathexpr

type sleeper = { deadline : int; gate : Semaphore.Binary.t }

type t = {
  sys : P.t; (* path setalarm , advance end *)
  sleepers : sleeper Heap.t;
  mutable now : int;
}

let mechanism = "pathexpr"

let paths = "path setalarm , advance end"

(* parsed once; [create] only compiles *)
let spec = Sync_pathexpr.Parser.parse paths

let create () =
  { sys = P.compile spec;
    sleepers = Heap.create ~cmp:(fun a b -> compare a.deadline b.deadline) ();
    now = 0 }

let wakeme t ~pid n =
  ignore pid;
  let gate =
    P.run t.sys "setalarm" (fun () ->
        let deadline = t.now + n in
        if t.now >= deadline then None
        else begin
          let s = { deadline; gate = Semaphore.Binary.create false } in
          Heap.push t.sleepers s;
          Some s.gate
        end)
  in
  match gate with None -> () | Some g -> Semaphore.Binary.p g

let tick t =
  P.run t.sys "advance" (fun () ->
      t.now <- t.now + 1;
      let rec wake_due () =
        match Heap.peek t.sleepers with
        | Some s when s.deadline <= t.now ->
          ignore (Heap.pop t.sleepers);
          Semaphore.Binary.v s.gate;
          wake_due ()
        | Some _ | None -> ()
      in
      wake_due ())

let now t = P.run t.sys "setalarm" (fun () -> t.now)

let stop _ = ()

let meta =
  Meta.make ~mechanism ~problem:"alarm-clock"
    ~fragments:
      [ ("alarm-deadline",
         [ "path"; "setalarm,advance"; "end"; "private"; "gate" ]);
        ("alarm-order", [ "deadline heap"; "wake-due-in-advance" ]) ]
    ~info_access:
      [ (Info.Parameters, Meta.Unsupported);
        (Info.Local_state, Meta.Unsupported) ]
    ~aux_state:
      [ "deadline heap"; "private gate per sleeper"; "now counter" ]
    ~sync_procedures:[ "setalarm"; "advance" ]
    ~separation:Meta.Blended ()
