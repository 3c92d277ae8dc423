open Sync_platform
module Probe = Sync_trace.Probe

type discipline = [ `Hoare | `Mesa ]

let abort_policy : Fault.abort_policy = `Propagate

(* One low-level lock protects all queues and the [busy] flag. Waking a
   thread parked on [entry] or [urgent] transfers monitor ownership to it
   ([busy] stays true). Waking a thread parked on a condition transfers
   ownership under the Hoare discipline only; under Mesa the woken thread
   re-acquires through the entry path.

   Exception safety: every wake that transfers ownership pairs with an
   [on_abort] that re-grants the monitor, so a process aborting between
   being woken and running leaves [busy]/queues consistent (abort policy:
   propagate). *)
type t = {
  lock : Mutex.t;
  disc : discipline;
  mutable busy : bool;
  entry : unit Waitq.t;
  urgent : unit Waitq.t;
}

let create ?(discipline = `Hoare) () =
  { lock = Mutex.create ~name:"monitor.lock" (); disc = discipline;
    busy = false;
    entry = Waitq.create ~name:"monitor.entry" ();
    urgent = Waitq.create ~name:"monitor.urgent" () }

let discipline t = t.disc

(* Must hold t.lock. Urgent waiters (parked signallers) beat the entry
   queue, per Hoare'74. *)
let grant t =
  if Waitq.wake_first t.urgent then ()
  else if Waitq.wake_first t.entry then ()
  else t.busy <- false

(* [mark] is a [Probe.mark] taken just before: the Acquire span starts
   where [t.lock]'s Acquire does and ends where its Hold does, borrowing
   their timestamps. Returns that end: the start of the caller's Hold. *)
let enter_marked t mark =
  Mutex.protect t.lock (fun () ->
      if t.busy then
        Waitq.wait t.entry ~lock:t.lock () ~on_abort:(fun () -> grant t)
      else t.busy <- true);
  Probe.span_marked Acquire ~site:"monitor" ~mark ~arg:0

let enter t = ignore (enter_marked t (Probe.mark ()))

(* Must hold t.lock; the caller does NOT own the monitor (its grant was
   passed on when it began waiting or signalling). Re-acquires through
   the entry queue before an abort propagates, so the caller's unwind
   always runs as owner — the condition-variable contract (POSIX
   reacquires the lock even for a cancelled wait). Masked: recovery is
   not an injection point. *)
let reacquire t =
  Fault.mask (fun () ->
      if t.busy then
        Waitq.wait t.entry ~lock:t.lock () ~on_abort:(fun () -> grant t)
      else t.busy <- true)

let exit t = Mutex.protect t.lock (fun () -> grant t)

(* The Hold runs from the end of the entry's lock hold to the end of the
   exit's, where ownership is given up. *)
let with_monitor t f =
  let mark = Probe.mark () in
  let h0 = enter_marked t mark in
  match f () with
  | v ->
    exit t;
    Probe.span_to_latest Hold ~site:"monitor" ~since:h0 ~mark ~arg:0;
    v
  | exception e ->
    exit t;
    Probe.span_to_latest Hold ~site:"monitor" ~since:h0 ~mark ~arg:0;
    raise e

let entry_waiters t = Mutex.protect t.lock (fun () -> Waitq.length t.entry)

module Cond = struct
  type monitor = t

  type t = { mon : monitor; q : int Waitq.t }

  let create mon = { mon; q = Waitq.create ~name:"monitor.cond" () }

  let rank_cmp = (compare : int -> int -> int)

  let wait_pri c rank =
    let m = c.mon in
    Mutex.protect m.lock (fun () ->
        grant m;
        match
          match m.disc with
          | `Hoare ->
            (* The wake we consumed was a Hoare handoff (ownership plus
               the signalled predicate): pass both to the next waiter of
               the same condition — solutions that signal exactly (e.g.
               an [if]-guarded turn queue) rely on the wake not being
               lost — else release the monitor. *)
            Waitq.wait c.q ~lock:m.lock rank ~on_abort:(fun () ->
                if not (Waitq.wake_min c.q ~cmp:rank_cmp) then grant m)
          | `Mesa ->
            (* Mesa wakes are advisory, but still wake exactly one
               process: re-route a consumed-then-aborted wake so a
               true-guard waiter is not left unwoken. *)
            Waitq.wait c.q ~lock:m.lock rank ~on_abort:(fun () ->
                ignore (Waitq.wake_min c.q ~cmp:rank_cmp));
            (* Signal-and-continue: compete for the monitor again. *)
            if m.busy then
              Waitq.wait m.entry ~lock:m.lock () ~on_abort:(fun () -> grant m)
            else m.busy <- true
        with
        | () -> ()
        | exception e ->
          (* The wait aborted after this process gave the monitor away;
             its unwind (Protected, with_monitor) will exit as owner, so
             get ownership back before the abort surfaces. *)
          reacquire m;
          raise e)

  let wait c = wait_pri c 0

  (* The empty test needs no lock when read by the owner, and only the
     owner signals. Only an owner adds to [c.q] (its own [wait]), and it
     does so under [m.lock] before ownership can pass: the next owner
     gets the monitor through [m.lock], so it sees every add. Waiters
     leave [c.q] concurrently (wakes, aborts), which can only turn a
     non-empty read stale — hence the re-check under the lock. *)
  let signal c =
    let m = c.mon in
    if not (Waitq.is_empty c.q) then
      Mutex.protect m.lock (fun () ->
          if not (Waitq.is_empty c.q) then begin
            if Probe.enabled () then
              Probe.instant Signal ~site:"monitor.cond"
                ~arg:(Waitq.length c.q);
            match m.disc with
            | `Hoare -> (
              (* Transfer the monitor to the chosen waiter; park on
                 urgent. *)
              ignore (Waitq.wake_min c.q ~cmp:rank_cmp);
              match
                Waitq.wait m.urgent ~lock:m.lock ()
                  ~on_abort:(fun () -> grant m)
              with
              | () -> ()
              | exception e ->
                reacquire m;
                raise e)
            | `Mesa -> ignore (Waitq.wake_min c.q ~cmp:rank_cmp)
          end)

  let broadcast c =
    let m = c.mon in
    match m.disc with
    | `Mesa ->
      Mutex.protect m.lock (fun () -> ignore (Waitq.wake_all c.q))
    | `Hoare ->
      (* Cascade of signal-and-waits through the waiters present NOW: a
         woken waiter that re-waits gets a fresh (younger) queue position,
         so waking the oldest [n] times reaches exactly the original
         waiters and the cascade terminates even if they all re-wait. *)
      let n = Mutex.protect m.lock (fun () -> Waitq.length c.q) in
      for _ = 1 to n do
        Mutex.protect m.lock (fun () ->
            if not (Waitq.is_empty c.q) then begin
              ignore (Waitq.wake_min c.q ~cmp:rank_cmp);
              match
                Waitq.wait m.urgent ~lock:m.lock ()
                  ~on_abort:(fun () -> grant m)
              with
              | () -> ()
              | exception e ->
                reacquire m;
                raise e
            end)
      done

  let queue c =
    let m = c.mon in
    Mutex.protect m.lock (fun () -> not (Waitq.is_empty c.q))

  let count c =
    let m = c.mon in
    Mutex.protect m.lock (fun () -> Waitq.length c.q)

  let min_rank c =
    let m = c.mon in
    Mutex.protect m.lock (fun () -> Waitq.min_tag c.q ~cmp:rank_cmp)
end
