(* Possession protocol: one low-level mutex protects everything. A waiter
   woken from the entry queue or from an event queue has had possession
   transferred to it ([busy] stays true). Guard re-evaluation happens at
   every possession-release point, under the lock.

   Exception safety (abort policy: propagate). A guard that raises is
   evaluated by whichever process happens to be releasing possession — an
   innocent bystander — so the exception is not thrown there: the waiter
   is marked poisoned ([w_exn]), woken as if eligible, and re-raises the
   failure in its own context. It raises holding possession, like any
   abort inside the region, and [with_serializer]'s bracket releases it:
   releasing here as well would hand possession out twice. *)

open Sync_platform
module Probe = Sync_trace.Probe

let abort_policy : Fault.abort_policy = `Propagate

type waiter = {
  guard : unit -> bool;
  rank : int;
  seq : int; (* global arrival order, used for longest-waiting arbitration *)
  cond : Condition.t;
  mutable released : bool;
  mutable w_exn : exn option; (* guard failure, delivered to the waiter *)
}

type queue = {
  qname : string;
  qsite : string; (* precomputed trace site, "serializer.q:<name>" *)
  mutable waiters : waiter list; (* sorted *)
}

type crowd = { cname : string; mutable members : int }

type t = {
  lock : Mutex.t;
  mutable busy : bool;
  mutable entry : waiter list; (* FIFO, sorted by seq *)
  mutable queues : queue list; (* creation order *)
  mutable next_seq : int;
}

let create () =
  { lock = Mutex.create ~name:"serializer.lock" (); busy = false; entry = [];
    queues = []; next_seq = 0 }

let fresh_waiter t ?(rank = 0) guard =
  let w =
    { guard; rank; seq = t.next_seq; cond = Condition.create ();
      released = false; w_exn = None }
  in
  t.next_seq <- t.next_seq + 1;
  w

(* Insert by (rank, seq): FIFO within equal ranks. *)
let rec insert_sorted w = function
  | [] -> [ w ]
  | w' :: rest as l ->
    if (w.rank, w.seq) < (w'.rank, w'.seq) then w :: l
    else w' :: insert_sorted w rest

(* Must hold t.lock. Among the heads of all event queues whose guard is
   true, the one waiting longest (smallest seq). A head whose guard
   raises is poisoned ([w_exn]) and counts as eligible, so it is woken to
   fail in its own context. *)
let best_head t =
  let eligible_head q =
    match q.waiters with
    | [] -> None
    | w :: _ ->
      if w.w_exn <> None then Some (q, w) (* poisoned: wake it to fail *)
      else (
        match w.guard () with
        | true -> Some (q, w)
        | false -> None
        | exception e ->
          w.w_exn <- Some e;
          Some (q, w))
  in
  List.fold_left
    (fun best q ->
      match (eligible_head q, best) with
      | None, best -> best
      | Some c, None -> Some c
      | Some (q, w), Some (_, w') ->
        if w.seq < w'.seq then Some (q, w) else best)
    None t.queues

(* Must hold t.lock. Transfer possession to the [best_head]; otherwise
   hand it to the oldest entry waiter; otherwise the serializer becomes
   free. *)
let release_possession t =
  match best_head t with
  | Some (q, w) ->
    q.waiters <- List.filter (fun w' -> w' != w) q.waiters;
    w.released <- true;
    if Probe.enabled () then
      Probe.instant Handoff ~site:q.qsite ~arg:(List.length q.waiters);
    Condition.signal w.cond
  | None -> (
    match t.entry with
    | w :: rest ->
      t.entry <- rest;
      w.released <- true;
      if Probe.enabled () then
        Probe.instant Handoff ~site:"serializer.entry"
          ~arg:(List.length t.entry);
      Condition.signal w.cond
    | [] -> t.busy <- false)

let park t ~site w = Condition.await w.cond t.lock ~site (fun () -> w.released)

(* [mark] is a [Probe.mark] taken just before: the Acquire span borrows
   the timestamps of [t.lock]'s events. Returns the instant it ended: the
   start of the caller's Hold. *)
let acquire t mark =
  Mutex.protect t.lock (fun () ->
      if t.busy then begin
        Fault.site "serializer.pre-wait";
        let w = fresh_waiter t (fun () -> true) in
        t.entry <- t.entry @ [ w ];
        park t ~site:"serializer.entry" w
      end
      else t.busy <- true);
  Probe.span_marked Acquire ~site:"serializer.entry" ~mark ~arg:0

let release t = Mutex.protect t.lock (fun () -> release_possession t)

(* The Hold runs from the end of the acquire's lock hold to the end of
   the release's, where possession is handed on. *)
let with_serializer t f =
  let mark = Probe.mark () in
  let h0 = acquire t mark in
  match f () with
  | v ->
    release t;
    Probe.span_to_latest Hold ~site:"serializer" ~since:h0 ~mark ~arg:0;
    v
  | exception e ->
    release t;
    Probe.span_to_latest Hold ~site:"serializer" ~since:h0 ~mark ~arg:0;
    raise e

let inside t = Mutex.protect t.lock (fun () -> t.busy)

module Queue = struct
  type serializer = t

  type t = { owner : serializer; q : queue }

  let create ?(name = "queue") owner =
    let q = { qname = name; qsite = "serializer.q:" ^ name; waiters = [] } in
    Mutex.protect owner.lock (fun () -> owner.queues <- owner.queues @ [ q ]);
    { owner; q }

  let name t = t.q.qname

  let length t =
    Mutex.protect t.owner.lock (fun () -> List.length t.q.waiters)

  let is_empty t = length t = 0

  let guard_length t = List.length t.q.waiters

  let guard_is_empty t = t.q.waiters = []
end

module Crowd = struct
  type serializer = t

  type t = { owner : serializer; c : crowd }

  let create ?(name = "crowd") owner =
    { owner; c = { cname = name; members = 0 } }

  let name t = t.c.cname

  (* Crowd tests are used inside guards, which already run under the
     serializer lock; they are also used from tests outside it. Reading an
     int field is atomic enough for both. *)
  let count t = t.c.members

  let is_empty t = t.c.members = 0
end

(* Must hold t.lock and possession. Direct admission: with [q] empty and
   no other queue head eligible, the waiter [enqueue] would park is the
   one [release_possession] picks — event queues beat the entry queue,
   and every other queued waiter is older but ineligible — so keeping
   possession is the same outcome without the waiter, its condition
   variable and the self-handoff. A guard that raises here fails the wait
   as a poisoned waiter does: the exception surfaces with possession
   still held. *)
let admits_directly t (q : queue) until =
  q.waiters = [] && Option.is_none (best_head t) && until ()

let enqueue ?rank (q : Queue.t) ~until =
  let t = q.Queue.owner in
  Mutex.protect t.lock (fun () ->
      (* Before the waiter exists: an abort here leaves the queues
         untouched and unwinds with possession still held, released by
         [with_serializer]'s bracket. *)
      Fault.site "serializer.pre-wait";
      if not (admits_directly t q.Queue.q until) then begin
        let t0 = Probe.now () in
        let depth = if t0 = 0 then 0 else List.length q.Queue.q.waiters in
        let w = fresh_waiter t ?rank until in
        q.Queue.q.waiters <- insert_sorted w q.Queue.q.waiters;
        release_possession t;
        park t ~site:q.Queue.q.qsite w;
        Probe.span Wait ~site:q.Queue.q.qsite ~since:t0 ~arg:depth;
        match w.w_exn with
        | None -> ()
        | Some e ->
          (* Our guard aborted: we were woken holding possession solely
             to fail the wait itself. *)
          raise e
      end)

let join_crowd (c : Crowd.t) ~body =
  let t = c.Crowd.owner in
  Mutex.protect t.lock (fun () ->
      c.Crowd.c.members <- c.Crowd.c.members + 1;
      release_possession t);
  let regain () =
    Mutex.protect t.lock (fun () ->
        if t.busy then begin
          let w = fresh_waiter t (fun () -> true) in
          t.entry <- t.entry @ [ w ];
          park t ~site:"serializer.entry" w
        end
        else t.busy <- true;
        c.Crowd.c.members <- c.Crowd.c.members - 1)
  in
  match body () with
  | v ->
    regain ();
    v
  | exception e ->
    regain ();
    raise e
