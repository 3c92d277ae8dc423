(* One lock per network serializes all channel state, which is what makes a
   multi-channel [select] commit atomically: a parked chooser is a single
   [cell] whose offers sit on several channels; whoever matches one offer
   flips the cell, so every other offer becomes stale and is purged on the
   next scan.

   Abort policy: poison. A rendezvous has no single owner whose unwind
   could repair it — a crashed server would strand every parked client
   forever — so an abort is broadcast: [poison] marks the network and
   wakes every parked cell, whose operation raises [Poisoned]; later
   operations fail fast. *)

open Sync_platform
module Probe = Sync_trace.Probe

exception Poisoned of exn

let abort_policy : Fault.abort_policy = `Poison

type cell = { mutable done_ : bool; cond : Condition.t; seq : int }

type network = {
  lock : Mutex.t;
  mutable next_seq : int; (* arrival order for longest-waiting matching *)
  mutable poison : exn option;
  mutable parked : cell list; (* live parked cells, woken on poison *)
}

let network () =
  { lock = Mutex.create ~name:"csp.lock" (); next_seq = 0; poison = None;
    parked = [] }

let poison net e =
  Mutex.protect net.lock (fun () ->
      if net.poison = None then begin
        net.poison <- Some e;
        if Probe.enabled () then
          Probe.instant Signal ~site:"csp.poison"
            ~arg:(List.length net.parked);
        List.iter (fun c -> Condition.signal c.cond) net.parked
      end)

let poisoned net = Mutex.protect net.lock (fun () -> net.poison)

(* Must hold net.lock. *)
let check_poison net =
  match net.poison with Some e -> raise (Poisoned e) | None -> ()

let fresh_cell net =
  let c = { done_ = false; cond = Condition.create (); seq = net.next_seq } in
  net.next_seq <- net.next_seq + 1;
  c

(* A parked sender: [taken] is called (under the lock) by the receiver that
   accepts the value; it lets a selecting sender record which case won. *)
type 'a send_offer = { s_cell : cell; value : 'a; taken : unit -> unit }

(* A parked receiver: [deliver] stores the value (and the winning case) on
   the receiver side. *)
type 'a recv_offer = { r_cell : cell; deliver : 'a -> unit }

type 'a chan = {
  net : network;
  cname : string;
  csite : string; (* precomputed trace site, "csp:<name>" *)
  mutable senders : 'a send_offer list; (* FIFO, stale entries purged lazily *)
  mutable recvers : 'a recv_offer list;
}

module Channel = struct
  type 'a t = 'a chan

  let create ?(name = "chan") net =
    { net; cname = name; csite = "csp:" ^ name; senders = []; recvers = [] }

  let name c = c.cname

  let live_senders c = List.filter (fun o -> not o.s_cell.done_) c.senders

  let live_recvers c = List.filter (fun o -> not o.r_cell.done_) c.recvers

  let waiting_senders c =
    Mutex.protect c.net.lock (fun () -> List.length (live_senders c))

  let waiting_receivers c =
    Mutex.protect c.net.lock (fun () -> List.length (live_recvers c))
end

let purge c =
  c.senders <- List.filter (fun o -> not o.s_cell.done_) c.senders;
  c.recvers <- List.filter (fun o -> not o.r_cell.done_) c.recvers

let park net ~site ~depth cell =
  net.parked <- cell :: net.parked;
  let t0 = Probe.now () in
  Condition.await cell.cond net.lock ~site (fun () ->
      cell.done_ || net.poison <> None);
  Probe.span Wait ~site ~since:t0 ~arg:depth;
  net.parked <- List.filter (fun c -> c != cell) net.parked;
  if not cell.done_ then begin
    match net.poison with
    | Some e ->
      (* Mark our offers stale so later purges drop them, then fail. *)
      cell.done_ <- true;
      raise (Poisoned e)
    | None -> assert false
  end

(* Under the lock: match against the longest-waiting live counterpart. *)
let pop_sender c =
  purge c;
  match c.senders with
  | [] -> None
  | o :: rest ->
    c.senders <- rest;
    o.s_cell.done_ <- true;
    o.taken ();
    if Probe.enabled () then
      Probe.instant Handoff ~site:c.csite ~arg:(List.length rest);
    Condition.signal o.s_cell.cond;
    Some o.value

let pop_recver c v =
  purge c;
  match c.recvers with
  | [] -> false
  | o :: rest ->
    c.recvers <- rest;
    o.r_cell.done_ <- true;
    o.deliver v;
    if Probe.enabled () then
      Probe.instant Handoff ~site:c.csite ~arg:(List.length rest);
    Condition.signal o.r_cell.cond;
    true

let send c v =
  let net = c.net in
  Mutex.protect net.lock (fun () ->
      check_poison net;
      if not (pop_recver c v) then begin
        Fault.site "csp.pre-wait";
        let depth =
          if Probe.enabled () then List.length c.senders else 0
        in
        let cell = fresh_cell net in
        c.senders <-
          c.senders @ [ { s_cell = cell; value = v; taken = ignore } ];
        park net ~site:c.csite ~depth cell
      end)

let recv c =
  let net = c.net in
  Mutex.protect net.lock (fun () ->
      check_poison net;
      match pop_sender c with
      | Some v -> v
      | None -> (
        Fault.site "csp.pre-wait";
        let depth =
          if Probe.enabled () then List.length c.recvers else 0
        in
        let cell = fresh_cell net in
        let slot = ref None in
        c.recvers <-
          c.recvers @ [ { r_cell = cell; deliver = (fun v -> slot := Some v) } ];
        park net ~site:c.csite ~depth cell;
        match !slot with
        | Some v -> v
        | None -> assert false (* deliver always ran before the wakeup *)))

let try_send c v =
  Mutex.protect c.net.lock (fun () ->
      check_poison c.net;
      pop_recver c v)

let try_recv c =
  Mutex.protect c.net.lock (fun () ->
      check_poison c.net;
      pop_sender c)

type 'r case = {
  enabled : bool;
  net_of : unit -> network;
  (* Try an immediate rendezvous with an already-parked counterpart;
     [Some k] on success. Under the lock. *)
  attempt : unit -> (unit -> 'r) option;
  (* Park an offer bound to the chooser's cell and result slot. Under the
     lock. *)
  post : cell -> (unit -> 'r) option ref -> unit;
}

let recv_case c k =
  { enabled = true;
    net_of = (fun () -> c.net);
    attempt =
      (fun () ->
        match pop_sender c with
        | Some v -> Some (fun () -> k v)
        | None -> None);
    post =
      (fun cell slot ->
        c.recvers <-
          c.recvers
          @ [ { r_cell = cell; deliver = (fun v -> slot := Some (fun () -> k v)) } ]) }

let send_case c v k =
  { enabled = true;
    net_of = (fun () -> c.net);
    attempt = (fun () -> if pop_recver c v then Some k else None);
    post =
      (fun cell slot ->
        c.senders <-
          c.senders
          @ [ { s_cell = cell; value = v; taken = (fun () -> slot := Some k) } ]) }

let guard b case = { case with enabled = case.enabled && b }

let select cases =
  let cases = List.filter (fun c -> c.enabled) cases in
  if cases = [] then invalid_arg "Csp.select: every case is disabled";
  let net = (List.hd cases).net_of () in
  List.iter
    (fun c ->
      if c.net_of () != net then
        invalid_arg "Csp.select: cases span several networks")
    cases;
  let k =
    Mutex.protect net.lock (fun () ->
        check_poison net;
        let rec first_ready = function
          | [] -> None
          | c :: rest -> (
            match c.attempt () with Some k -> Some k | None -> first_ready rest)
        in
        match first_ready cases with
        | Some k -> k
        | None -> (
          Fault.site "csp.pre-wait";
          let cell = fresh_cell net in
          let slot = ref None in
          List.iter (fun c -> c.post cell slot) cases;
          park net ~site:"csp.select" ~depth:(List.length cases) cell;
          match !slot with
          | Some k -> k
          | None -> assert false))
  in
  (* The continuation runs outside the network lock. *)
  k ()
