(** Disk-head scheduling with path expressions — by synchronization
    procedures, because the paper's conclusion for this information
    category is blunt: "there is obviously no way to use parameter values
    in paths".

    The path layer contributes only mutual exclusion over the scheduler
    bookkeeping ([path enterq , leaveq end] — a selection of two gate
    procedures per cycle is exactly a mutex). Everything the problem is
    actually about — the pending heaps, the sweep, the per-request
    private gates — lives in ordinary code invoked from those gate
    procedures, i.e. the resource module and the synchronization are
    thoroughly blended. *)

open Sync_platform
open Sync_taxonomy
module P = Sync_pathexpr.Pathexpr

type direction = Up | Down

type waiting = { dest : int; gate : Semaphore.Binary.t }

type t = {
  sys : P.t; (* path enterq , leaveq end *)
  upq : waiting Heap.t;
  downq : waiting Heap.t;
  mutable headpos : int;
  mutable direction : direction;
  mutable busy : bool;
  res_access : pid:int -> int -> unit;
}

let mechanism = "pathexpr"

let paths = "path enterq , leaveq end"

(* parsed once; [create] only compiles *)
let spec = Sync_pathexpr.Parser.parse paths

let create ~tracks ~access =
  ignore tracks;
  { sys = P.compile spec;
    upq = Heap.create ~cmp:(fun a b -> compare a.dest b.dest) ();
    downq = Heap.create ~cmp:(fun a b -> compare b.dest a.dest) ();
    headpos = 0; direction = Up; busy = false; res_access = access }

(* Synchronization procedure: runs under the path's exclusion and decides
   whether the caller may proceed or must wait on a private gate. *)
let enterq t dest =
  P.run t.sys "enterq" (fun () ->
      if not t.busy then begin
        t.busy <- true;
        t.headpos <- dest;
        None
      end
      else begin
        let w = { dest; gate = Semaphore.Binary.create false } in
        if t.headpos < dest || (t.headpos = dest && t.direction = Up) then
          Heap.push t.upq w
        else Heap.push t.downq w;
        Some w.gate
      end)

let leaveq t =
  P.run t.sys "leaveq" (fun () ->
      let next =
        match t.direction with
        | Up -> (
          match Heap.pop t.upq with
          | Some w -> Some w
          | None ->
            t.direction <- Down;
            Heap.pop t.downq)
        | Down -> (
          match Heap.pop t.downq with
          | Some w -> Some w
          | None ->
            t.direction <- Up;
            Heap.pop t.upq)
      in
      match next with
      | Some w ->
        t.headpos <- w.dest;
        Semaphore.Binary.v w.gate
      | None -> t.busy <- false)

let access t ~pid track =
  (match enterq t track with
  | None -> ()
  | Some gate -> Semaphore.Binary.p gate);
  Fun.protect
    ~finally:(fun () -> leaveq t)
    (fun () -> t.res_access ~pid track)

let stop _ = ()

let meta =
  Meta.make ~mechanism ~problem:"disk-scheduler"
    ~fragments:
      [ ("disk-exclusion",
         [ "path"; "enterq,leaveq"; "end"; "private"; "gate" ]);
        ("disk-scan-order",
         [ "upq"; "downq"; "heaps"; "dispatch-in-leaveq"; "headpos";
           "direction" ]) ]
    ~info_access:
      [ (Info.Parameters, Meta.Unsupported); (Info.Sync_state, Meta.Indirect) ]
    ~aux_state:
      [ "pending-request heaps ordered by track";
        "private gate per waiting request"; "headpos"; "direction";
        "busy flag" ]
    ~sync_procedures:[ "enterq"; "leaveq" ]
    ~separation:Meta.Blended ()
