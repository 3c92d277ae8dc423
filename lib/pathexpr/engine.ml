open Sync_platform

type sem = { p : unit -> unit; v : unit -> unit }

type t = {
  name : string;
  make_sem : int -> sem;
  pred_gate : ((unit -> bool) -> unit) option;
  poke : unit -> unit;
}

let semaphore () =
  let make_sem n =
    let s = Semaphore.Counting.create ~fairness:`Strong n in
    { p = (fun () -> Semaphore.Counting.p s);
      v = (fun () -> Semaphore.Counting.v s) }
  in
  { name = "semaphore"; make_sem; pred_gate = None; poke = (fun () -> ()) }

let gate () =
  let lock = Mutex.create ~name:"path.lock" () in
  let changed = Condition.create () in
  let make_sem n =
    let tokens = ref n in
    let q : unit Waitq.t = Waitq.create ~name:"path.gate" () in
    let p () =
      Mutex.protect lock (fun () ->
          if !tokens > 0 && Waitq.is_empty q then decr tokens
          else
            (* A token handed to an aborting waiter is re-donated, so a
               path counter never loses a unit to an injected crash. *)
            Waitq.wait q ~lock ()
              ~on_abort:(fun () ->
                if not (Waitq.wake_first q) then incr tokens))
    in
    let v () =
      Mutex.protect lock (fun () ->
          (* Hand the token directly to the oldest waiter, preserving
             FIFO. *)
          if not (Waitq.wake_first q) then incr tokens;
          Condition.broadcast changed)
    in
    { p; v }
  in
  let pred_gate f =
    Mutex.protect lock (fun () ->
        if not (f ()) then begin
          let t0 = Sync_trace.Probe.now () in
          Condition.await changed lock ~site:"path.pred" f;
          Sync_trace.Probe.span Wait ~site:"path.pred" ~since:t0 ~arg:0
        end)
  in
  let poke () =
    Mutex.protect lock (fun () -> Condition.broadcast changed)
  in
  { name = "gate"; make_sem; pred_gate = Some pred_gate; poke }
