open Sync_metrics

(* Aggregate a snapshot into the two artifacts the contention questions
   need: per-(site, kind) duration histograms for the span kinds (where
   does hold time go, how long do waiters queue) and a wake-accounting
   report (how many wakes were issued, how many were direct handoffs,
   how many woke a process whose predicate was still false, how many
   timed waits walked away). *)

type site_row = {
  site : string;
  kind : Probe.kind;
  count : int;
  total_ns : int;
  hist : Histogram.t;
}

type wake_report = {
  signals : int;
  handoffs : int;
  spurious : int;
  abandoned : int;
  flips : int;  (** swappable-site tier flips ([Flip] instants) *)
  max_queue : int;  (** deepest queue observed at any park or wake *)
}

type t = {
  rows : site_row list;  (** spans, grouped by site then kind *)
  wake : wake_report;
  events : int;
  dropped : int;
}

let of_events ?(dropped = 0) events =
  let spans : (string * Probe.kind, site_row) Hashtbl.t = Hashtbl.create 32 in
  let signals = ref 0 and handoffs = ref 0 in
  let spurious = ref 0 and abandoned = ref 0 in
  let flips = ref 0 and max_queue = ref 0 in
  List.iter
    (fun (e : Probe.event) ->
      match e.kind with
      | Acquire | Hold | Wait | Op ->
        let key = (e.site, e.kind) in
        let row =
          match Hashtbl.find_opt spans key with
          | Some r -> r
          | None ->
            let r =
              { site = e.site; kind = e.kind; count = 0; total_ns = 0;
                hist = Histogram.create () }
            in
            Hashtbl.replace spans key r;
            r
        in
        Histogram.record row.hist e.dur;
        Hashtbl.replace spans key
          { row with count = row.count + 1; total_ns = row.total_ns + e.dur };
        if e.kind = Wait then max_queue := max !max_queue e.arg
      | Signal ->
        incr signals;
        max_queue := max !max_queue e.arg
      | Handoff ->
        incr handoffs;
        max_queue := max !max_queue e.arg
      | Spurious -> incr spurious
      | Abandon -> incr abandoned
      | Flip -> incr flips)
    events;
  let rows =
    Hashtbl.fold (fun _ r acc -> r :: acc) spans []
    |> List.sort (fun a b ->
           match compare a.site b.site with
           | 0 -> compare a.kind b.kind
           | c -> c)
  in
  { rows;
    wake =
      { signals = !signals; handoffs = !handoffs; spurious = !spurious;
        abandoned = !abandoned; flips = !flips; max_queue = !max_queue };
    events = List.length events;
    dropped }

let find_row t ~site ~kind =
  List.find_opt (fun r -> r.site = site && r.kind = kind) t.rows

let pp ppf t =
  Format.fprintf ppf "%-28s %-8s %9s %12s %10s %10s %10s@." "site" "kind"
    "count" "total ms" "mean ns" "p99 ns" "max ns";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-28s %-8s %9d %12.3f %10.0f %10d %10d@." r.site
        (Probe.kind_to_string r.kind)
        r.count
        (float_of_int r.total_ns /. 1e6)
        (Histogram.mean r.hist)
        (Histogram.quantile r.hist 0.99)
        (Histogram.max_value r.hist))
    t.rows;
  Format.fprintf ppf
    "wakes: %d signals, %d handoffs, %d spurious, %d abandoned, %d tier \
     flips; deepest queue %d; %d events (%d dropped)@."
    t.wake.signals t.wake.handoffs t.wake.spurious t.wake.abandoned
    t.wake.flips t.wake.max_queue t.events t.dropped

let to_json t =
  Emit.Obj
    [ ("events", Emit.Int t.events);
      ("dropped", Emit.Int t.dropped);
      ("sites",
       Emit.List
         (List.map
            (fun r ->
              Emit.Obj
                [ ("site", Emit.Str r.site);
                  ("kind", Emit.Str (Probe.kind_to_string r.kind));
                  ("count", Emit.Int r.count);
                  ("total_ns", Emit.Int r.total_ns);
                  ("mean_ns", Emit.Float (Histogram.mean r.hist));
                  ("p50_ns", Emit.Int (Histogram.quantile r.hist 0.5));
                  ("p99_ns", Emit.Int (Histogram.quantile r.hist 0.99));
                  ("max_ns", Emit.Int (Histogram.max_value r.hist)) ])
            t.rows));
      ("wake",
       Emit.Obj
         [ ("signals", Emit.Int t.wake.signals);
           ("handoffs", Emit.Int t.wake.handoffs);
           ("spurious", Emit.Int t.wake.spurious);
           ("abandoned", Emit.Int t.wake.abandoned);
           ("flips", Emit.Int t.wake.flips);
           ("max_queue", Emit.Int t.wake.max_queue) ]) ]
