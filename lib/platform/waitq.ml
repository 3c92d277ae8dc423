module Probe = Sync_trace.Probe

type 'a waiter = {
  tag : 'a;
  cond : Condition.t;
  mutable released : bool;
  seq : int;
}

type 'a t = {
  mutable waiters : 'a waiter list; (* arrival order, oldest first *)
  mutable next_seq : int;
  (* Watchdog resource id; -1 when the watchdog was off at creation. *)
  qrid : int;
  name : string; (* trace site for wait/handoff/signal events *)
}

let create ?(name = "waitq") () =
  { waiters = []; next_seq = 0;
    qrid =
      (if Deadlock.enabled () then Deadlock.register ~kind:"waitq" ()
       else -1);
    name }

let length t = List.length t.waiters

let is_empty t = t.waiters = []

let remove t w = t.waiters <- List.filter (fun w' -> w' != w) t.waiters

let enqueue t tag =
  let w =
    { tag; cond = Condition.create (); released = false; seq = t.next_seq }
  in
  t.next_seq <- t.next_seq + 1;
  t.waiters <- t.waiters @ [ w ];
  w

(* The ["waitq.pre-wait"] fault site fires before the caller is enqueued,
   so an injected abort leaves the queue untouched; the caller's own
   unwind (Mutex.protect etc.) releases the mechanism lock.
   ["waitq.post-wakeup"] fires after a wake was consumed: the grant (a
   semaphore unit, monitor ownership, ...) is already ours, so the owner
   mechanism passes [on_abort] to re-route it — called under the lock —
   before the abort propagates. *)
let post_wakeup on_abort =
  match Fault.site "waitq.post-wakeup" with
  | () -> ()
  | exception e ->
    (match on_abort with Some f -> f () | None -> ());
    raise e

let wait ?on_abort t ~lock tag =
  Fault.site "waitq.pre-wait";
  let t0 = Probe.now () in
  let depth = if t0 = 0 then 0 else List.length t.waiters in
  let w = enqueue t tag in
  if t.qrid >= 0 then Deadlock.blocked t.qrid;
  Condition.await w.cond lock ~site:t.name (fun () -> w.released);
  if t.qrid >= 0 then Deadlock.unblocked ();
  Probe.span Wait ~site:t.name ~since:t0 ~arg:depth;
  post_wakeup on_abort

let wait_for ?on_abort t ~lock ~deadline tag =
  Fault.site "waitq.pre-wait";
  let t0 = Probe.now () in
  let depth = if t0 = 0 then 0 else List.length t.waiters in
  let w = enqueue t tag in
  if t.qrid >= 0 then Deadlock.blocked t.qrid;
  let rec park () =
    if w.released then true
    else if Condition.wait_for w.cond lock ~deadline then park ()
    else w.released (* expired: final re-check, under the lock *)
  in
  let granted = park () in
  if t.qrid >= 0 then Deadlock.unblocked ();
  if granted then begin
    Probe.span Wait ~site:t.name ~since:t0 ~arg:depth;
    post_wakeup on_abort;
    true
  end
  else begin
    (* Cancel: unhook ourselves so a waker never picks a gone waiter. *)
    remove t w;
    if t0 <> 0 then begin
      let n = Probe.now () in
      Probe.record Abandon ~site:t.name ~t0:n ~dur:0 ~arg:(n - t0)
    end;
    false
  end

let tags t = List.map (fun w -> w.tag) t.waiters

let release t w =
  remove t w;
  w.released <- true;
  if Probe.enabled () then
    Probe.instant Handoff ~site:t.name ~arg:(List.length t.waiters);
  Condition.signal w.cond

let wake_first t =
  match t.waiters with
  | [] -> false
  | w :: _ ->
    release t w;
    true

let wake_first_matching t ~f =
  match List.find_opt (fun w -> f w.tag) t.waiters with
  | None -> false
  | Some w ->
    release t w;
    true

let select_min t ~cmp =
  match t.waiters with
  | [] -> None
  | first :: rest ->
    let best =
      List.fold_left
        (fun best w ->
          let c = cmp w.tag best.tag in
          if c < 0 || (c = 0 && w.seq < best.seq) then w else best)
        first rest
    in
    Some best

let wake_min t ~cmp =
  match select_min t ~cmp with
  | None -> false
  | Some w ->
    release t w;
    true

(* Release up to [n] oldest waiters in one pass: the queue is split
   once, each waiter gets its flag flip + private signal, and a single
   batched Signal instant replaces [n] Handoff instants. V-storms thus
   pay one trace event and no repeated queue rescans. *)
let wake_n t n =
  if n <= 0 then 0
  else begin
    let rec split k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | w :: rest -> split (k - 1) (w :: acc) rest
    in
    let woken, rest = split n [] t.waiters in
    t.waiters <- rest;
    List.iter
      (fun w ->
        w.released <- true;
        Condition.signal w.cond)
      woken;
    let k = List.length woken in
    if k > 0 then Probe.instant Signal ~site:t.name ~arg:k;
    k
  end

let wake_all t = wake_n t max_int

let min_tag t ~cmp =
  match select_min t ~cmp with None -> None | Some w -> Some w.tag
