(* [after]/[abort] run masked: once [op]'s effect is committed (or being
   compensated), the bookkeeping that reconciles the synchronizer with it
   must not itself be abortable — an injection there would leave flags and
   counts pointing at an effect that already happened. *)
let access m ~before ~after ?abort op =
  let mark = Sync_trace.Probe.mark () in
  Monitor.with_monitor m before;
  match op () with
  | v ->
    Sync_platform.Fault.mask (fun () -> Monitor.with_monitor m after);
    (* From the monitor lock's first Acquire to its last Hold's end. *)
    ignore
      (Sync_trace.Probe.span_marked Op ~site:"protected.access" ~mark ~arg:0);
    v
  | exception e ->
    Sync_platform.Fault.mask (fun () ->
        Monitor.with_monitor m
          (match abort with Some f -> f | None -> after));
    raise e

let access_inside m op = Monitor.with_monitor m op
