(* E21: the tracing/contention observability axis. One short traced
   closed-loop load per mechanism on the tightest bounded buffer
   (capacity 1, three thread workers) — enough contention that every
   instrumented layer fires — then a structural audit of the recorded
   events: did the mechanism produce operation spans, wait spans, wakes?
   The axis scores the *observability* of each mechanism, not its speed:
   a mechanism whose probes go silent has lost its story. *)

open Sync_metrics
open Sync_workload
module Probe = Sync_trace.Probe
module Profile = Sync_trace.Profile

type row = {
  mechanism : string;
  problem : string;
  events : int;  (* retained events in the snapshot *)
  op_spans : int;
  wait_spans : int;
  wakes : int;  (* signal + handoff instants *)
  spurious : int;
  dropped : int;  (* lost to ring wraparound *)
  failures : int;  (* self-check failures during the traced load *)
  ok : bool;
}

type traced = {
  row : row;
  events : Probe.event list;
  profile : Profile.t;
}

let count f events =
  List.fold_left (fun n (e : Probe.event) -> if f e then n + 1 else n) 0 events

let audit ~mechanism ~problem ~failures events ~dropped =
  let op_spans = count (fun e -> e.Probe.kind = Probe.Op) events in
  let wait_spans = count (fun e -> e.Probe.kind = Probe.Wait) events in
  let wakes =
    count
      (fun e -> e.Probe.kind = Probe.Signal || e.Probe.kind = Probe.Handoff)
      events
  in
  let spurious = count (fun e -> e.Probe.kind = Probe.Spurious) events in
  { mechanism;
    problem;
    events = List.length events;
    op_spans;
    wait_spans;
    wakes;
    spurious;
    dropped;
    failures;
    (* A capacity-1 buffer under three workers must park somebody and
       wake somebody; zero waits or wakes means the mechanism's probes
       are not firing. *)
    ok = failures = 0 && op_spans > 0 && wait_spans > 0 && wakes > 0 }

let trace_one ?(duration_ms = 25) ~problem ~mechanism () =
  let params = { Target.default_params with Target.capacity = 1 } in
  match Target.create ~params ~problem ~mechanism () with
  | Error e -> Error e
  | Ok instance ->
    let cfg =
      { Loadgen.default_config with
        Loadgen.workers = 3;
        backend = `Thread;
        duration_ms;
        warmup_ms = 5 }
    in
    let report, events = Probe.with_tracing (fun () -> Loadgen.run instance cfg) in
    let dropped = Probe.dropped () in
    let failures = report.Report.summary.Summary.total_failures in
    Ok
      { row = audit ~mechanism ~problem ~failures events ~dropped;
        events;
        profile = Profile.of_events ~dropped events }

let run_traced ?duration_ms ?(problem = "bounded-buffer") ?mechanisms () =
  let mechanisms =
    match mechanisms with
    | Some ms -> ms
    | None -> Target.mechanisms ~problem
  in
  List.map
    (fun mechanism ->
      match trace_one ?duration_ms ~problem ~mechanism () with
      | Ok t -> t
      | Error _ ->
        (* No target: an empty, failed row rather than a crash, so the
           scorecard still prints the rest. *)
        { row =
            { mechanism;
              problem;
              events = 0;
              op_spans = 0;
              wait_spans = 0;
              wakes = 0;
              spurious = 0;
              dropped = 0;
              failures = 0;
              ok = false };
          events = [];
          profile = Profile.of_events ~dropped:0 [] })
    mechanisms

let run ?duration_ms ?problem ?mechanisms () =
  List.map (fun t -> t.row) (run_traced ?duration_ms ?problem ?mechanisms ())

let all_ok rows = List.for_all (fun r -> r.ok) rows

let to_json rows =
  Bench_doc.document ~experiment:"E21"
    ~description:
      "observability: one traced load per mechanism; span, wake and drop \
       counts from the probe rings"
    (List.map
       (fun r ->
         Bench_doc.row
           ~status:
             (if r.ok then Bench_doc.Supported
              else Bench_doc.Failed "incomplete trace or self-check failures")
           [ ("mechanism", Emit.Str r.mechanism); ("problem", Emit.Str r.problem) ]
           (List.map
              (fun (k, v) -> (k, float_of_int v))
              [ ("events", r.events); ("op_spans", r.op_spans);
                ("wait_spans", r.wait_spans); ("wakes", r.wakes);
                ("spurious", r.spurious); ("dropped", r.dropped);
                ("failures", r.failures) ]))
       rows)
