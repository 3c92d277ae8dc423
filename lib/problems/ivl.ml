open Sync_platform

type interval = {
  pid : int;
  op : string;
  arg : int;
  ret : int;
  request : int;
  enter : int;
  exit_ : int;
}

(* Pids key tables by their own value: generic [Hashtbl] would hash every
   lookup through [caml_hash], and a DPOR scenario runs its checks on
   every explored schedule. *)
module Pids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash pid = pid land max_int
end)

type pending = {
  mutable p_request : int;
  mutable p_enter : int;
  mutable p_arg : int;
}

let intervals events =
  let pending : pending Pids.t = Pids.create 16 in
  let out = ref [] in
  let get_pending pid =
    match Pids.find_opt pending pid with
    | Some p -> p
    | None ->
      let p = { p_request = -1; p_enter = -1; p_arg = 0 } in
      Pids.add pending pid p;
      p
  in
  List.iter
    (fun (e : Trace.event) ->
      match e.phase with
      | Trace.Mark -> ()
      | Trace.Request ->
        let p = get_pending e.pid in
        p.p_request <- e.seq
      | Trace.Enter ->
        let p = get_pending e.pid in
        if p.p_enter >= 0 then
          invalid_arg
            (Printf.sprintf "Ivl.intervals: nested Enter for pid %d" e.pid);
        p.p_enter <- e.seq;
        p.p_arg <- e.arg
      | Trace.Exit ->
        let p = get_pending e.pid in
        if p.p_enter < 0 then
          invalid_arg
            (Printf.sprintf "Ivl.intervals: Exit without Enter for pid %d"
               e.pid);
        out :=
          { pid = e.pid; op = e.op; arg = p.p_arg; ret = e.arg;
            request = p.p_request; enter = p.p_enter; exit_ = e.seq }
          :: !out;
        p.p_enter <- -1;
        p.p_request <- -1)
    events;
  List.sort (fun a b -> compare a.enter b.enter) !out

let check_wellformed events =
  let inside : string Pids.t = Pids.create 16 in
  let bad = ref None in
  List.iter
    (fun (e : Trace.event) ->
      if Option.is_none !bad then
        match e.phase with
        | Trace.Mark | Trace.Request -> ()
        | Trace.Enter ->
          if Pids.mem inside e.pid then
            bad :=
              Some
                (Printf.sprintf "pid %d: Enter %s while still inside %s" e.pid
                   e.op (Pids.find inside e.pid))
          else Pids.add inside e.pid e.op
        | Trace.Exit ->
          if not (Pids.mem inside e.pid) then
            bad :=
              Some
                (Printf.sprintf "pid %d: Exit %s without a matching Enter"
                   e.pid e.op)
          else Pids.remove inside e.pid)
    events;
  match !bad with
  | Some msg -> Error ("malformed trace: " ^ msg)
  | None -> (
    let stuck = Pids.fold (fun pid op acc -> (pid, op) :: acc) inside [] in
    match List.sort compare stuck with
    | [] -> Ok ()
    | (pid, op) :: _ ->
      Error
        (Printf.sprintf
           "malformed trace: pid %d: unmatched Enter for %s (no Exit \
            recorded)"
           pid op))

let overlap a b = a.enter < b.exit_ && b.enter < a.exit_

let exclusion_violations ~conflicts ivls =
  (* Sweep in enter order, keeping the active set. *)
  let rec sweep active acc = function
    | [] -> List.rev acc
    | i :: rest ->
      let active = List.filter (fun a -> a.exit_ > i.enter) active in
      let clashes =
        List.filter (fun a -> conflicts a.op i.op && overlap a i) active
      in
      let acc = List.fold_left (fun acc a -> (a, i) :: acc) acc clashes in
      sweep (i :: active) acc rest
  in
  sweep [] [] ivls

let max_concurrency ~op ivls =
  let points =
    List.concat_map
      (fun i -> if i.op = op then [ (i.enter, 1); (i.exit_, -1) ] else [])
      ivls
  in
  let points = List.sort compare points in
  let _, maxc =
    List.fold_left
      (fun (cur, maxc) (_, d) ->
        let cur = cur + d in
        (cur, max cur maxc))
      (0, 0) points
  in
  maxc

let fifo_violations ivls =
  let with_request = List.filter (fun i -> i.request >= 0) ivls in
  let rec pairs acc = function
    | [] -> List.rev acc
    | a :: rest ->
      let late =
        List.filter (fun b -> b.request < a.request && a.enter < b.enter) rest
      in
      pairs (List.fold_left (fun acc b -> (a, b) :: acc) acc late) rest
  in
  pairs [] with_request

let grant_order ~op ivls =
  List.filter_map (fun i -> if i.op = op then Some i.arg else None) ivls
