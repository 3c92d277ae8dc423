(** Workload driver and checker for the alarm clock.

    The driver runs on the deterministic runtime ({!Staged}). It
    registers a batch of sleepers at virtual time 0, each left to park
    before the next is spawned, so registration completes before the
    first tick. It then advances the clock one tick at a time and waits
    for quiescence after each tick: exactly the sleepers whose deadlines
    have passed must have returned by then — an exact, deterministic
    conformance check of both constraints (wake no earlier than the
    deadline; deadline order respected tick by tick). Each sleep is also
    recorded as a trace interval ([Enter] before [wakeme], [Exit] on
    return) and the trace is checked for well-formedness. *)

open Sync_platform

(* The staged batch. Must be called inside a [Detrt.run] body. On a
   failed check it returns at once, leaving unwoken sleepers parked;
   {!Staged.check} reports the verdict. *)
let run_exact (module S : Alarm_intf.S) ?(durations = [ 3; 1; 4; 1; 5; 9; 2 ])
    () =
  let trace = Trace.create () in
  let t = S.create () in
  let woke = Array.make (List.length durations) false in
  let sleepers =
    List.mapi
      (fun i dur ->
        let p =
          Process.spawn (fun () ->
              Trace.record trace ~pid:i ~op:"sleep" ~phase:Trace.Request
                ~arg:dur ();
              Trace.record trace ~pid:i ~op:"sleep" ~phase:Trace.Enter ~arg:dur
                ();
              S.wakeme t ~pid:i dur;
              Trace.record trace ~pid:i ~op:"sleep" ~phase:Trace.Exit ~arg:dur
                ();
              woke.(i) <- true)
        in
        Detrt.await_quiescence ();
        p)
      durations
  in
  let misfit now =
    List.find_map
      (fun (i, dur) ->
        match (woke.(i), dur <= now) with
        | true, false ->
          Some
            (Printf.sprintf "sleeper %d (deadline %d) woke early at tick %d" i
               dur now)
        | false, true ->
          Some
            (Printf.sprintf "sleeper %d (deadline %d) still asleep at tick %d"
               i dur now)
        | _ -> None)
      (List.mapi (fun i dur -> (i, dur)) durations)
  in
  let horizon = List.fold_left max 0 durations in
  let rec go now =
    match misfit now with
    | Some msg -> Error msg
    | None when now = horizon -> Ok ()
    | None ->
      S.tick t;
      Detrt.await_quiescence ();
      go (now + 1)
  in
  match go 0 with
  | Error _ as e -> e
  | Ok () ->
    List.iter Process.join sleepers;
    S.stop t;
    Ivl.check_wellformed (Trace.events trace)

let verify ?durations (module S : Alarm_intf.S) =
  Staged.check (run_exact (module S) ?durations)

(* A sleeper asking for zero ticks must return without any tick. *)
let verify_zero (module S : Alarm_intf.S) =
  Staged.check (fun () ->
      let t = S.create () in
      let woke = ref false in
      let p =
        Process.spawn (fun () ->
            S.wakeme t ~pid:0 0;
            woke := true)
      in
      Detrt.await_quiescence ();
      if !woke then begin
        Process.join p;
        S.stop t;
        Ok ()
      end
      else Error "a zero-tick sleeper blocked")
