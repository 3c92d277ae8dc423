(* The traced pass of a workload: probe snapshots (one per round, or a
   daemon's Chrome trace) folded with [Profile.of_events] into the
   lock-level numbers, plus the last snapshot kept for the Chrome trace
   the pass writes. Lock numbers use acquire and hold spans only:
   condition and queue waits include waiting for work, which is not
   contention. "Ops" are the outermost spans: the bench's own [bench.*]
   spans around each call into a layer, or the daemon's [serve.request]
   span. *)

module Probe = Sync_trace.Probe
module Profile = Sync_trace.Profile
module Histogram = Sync_metrics.Histogram
module Emit = Sync_metrics.Emit

type t = {
  hold : Histogram.t;
  acquire : Histogram.t;
  mutable hold_ns : int;
  mutable acquire_ns : int;
  mutable wakes : int;
  mutable spurious : int;
  mutable ops : int;
  mutable dropped : int;
  mutable last : Probe.event list;
}

let create () =
  { hold = Histogram.create (); acquire = Histogram.create (); hold_ns = 0;
    acquire_ns = 0; wakes = 0; spurious = 0; ops = 0; dropped = 0; last = [] }

let outer_site s =
  s = "serve.request" || (String.length s > 6 && String.sub s 0 6 = "bench.")

let add t ~dropped events =
  let p = Profile.of_events ~dropped events in
  List.iter
    (fun (r : Profile.site_row) ->
      match r.kind with
      | Probe.Hold ->
        Histogram.merge_into ~into:t.hold r.hist;
        t.hold_ns <- t.hold_ns + r.total_ns
      | Probe.Acquire ->
        Histogram.merge_into ~into:t.acquire r.hist;
        t.acquire_ns <- t.acquire_ns + r.total_ns
      | Probe.Op -> if outer_site r.site then t.ops <- t.ops + r.count
      | _ -> ())
    p.rows;
  t.wakes <- t.wakes + p.wake.signals + p.wake.handoffs;
  t.spurious <- t.spurious + p.wake.spurious;
  t.dropped <- t.dropped + dropped;
  t.last <- events

(* Record [events] from this process's probe rings and clear them. *)
let add_rings t =
  add t ~dropped:(Probe.dropped ()) (Probe.snapshot ());
  Probe.reset ()

let per x n = float_of_int x /. float_of_int (max 1 n)

let metrics t =
  let m = Doc.metric in
  [ m "lock.wait_share" "ratio" (per t.acquire_ns (t.acquire_ns + t.hold_ns));
    m "lock.wakes_per_op" "ratio" (per t.wakes t.ops);
    m "lock.spurious_per_wake" "ratio" (per t.spurious t.wakes);
    m "lock.hold_p50_ns" "ns" (float_of_int (Histogram.quantile t.hold 0.5));
    m "lock.wait_p99_ns" "ns" (float_of_int (Histogram.quantile t.acquire 0.99));
    m "trace.dropped_events" "count" (float_of_int t.dropped) ]

let write_chrome t ~label path =
  Sync_trace.Chrome.write_file path [ (label, t.last) ]

(* -- reading a daemon's Chrome trace back into probe events --------- *)

let kind_of_string = function
  | "acquire" -> Some Probe.Acquire
  | "hold" -> Some Probe.Hold
  | "wait" -> Some Probe.Wait
  | "op" -> Some Probe.Op
  | "signal" -> Some Probe.Signal
  | "handoff" -> Some Probe.Handoff
  | "abandon" -> Some Probe.Abandon
  | "spurious" -> Some Probe.Spurious
  | "flip" -> Some Probe.Flip
  | _ -> None

let events_of_chrome path =
  let num k v =
    match Option.bind (Emit.member k v) Emit.number with
    | Some f -> f
    | None -> 0.0
  in
  let str k v =
    match Emit.member k v with Some (Emit.Str s) -> s | _ -> ""
  in
  Emit.parse_file path
  |> Emit.member "traceEvents"
  |> Option.fold ~none:[] ~some:Emit.to_list
  |> List.filter_map (fun e ->
         match kind_of_string (str "cat" e) with
         | None -> None
         | Some kind ->
           let args = Option.value (Emit.member "args" e) ~default:Emit.Null in
           Some
             { Probe.t0 = int_of_float (num "ts" e *. 1e3);
               dur = int_of_float (num "dur" e *. 1e3);
               kind;
               site = str "name" e;
               op = str "op" args;
               actor = int_of_float (num "tid" e);
               arg = int_of_float (num "arg" args) })
