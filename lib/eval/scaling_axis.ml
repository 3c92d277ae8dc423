(* E23: the epoch rows. The readers-writers database on the
   {!Sync_problems.Rw_epoch} read-mostly path at increasing domain
   counts, with closed-loop think time so the comparison measures
   reader-entry scalability rather than how many times one core can run
   the same critical section; a serializing reference mechanism rides
   along in the full run. *)

open Sync_metrics
open Sync_workload

type spec = {
  mechanisms : string list;
  domains : int list;
  think_us : int;
  read_pct : int;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
}

(* The rows carry a think time because on a host with few cores a
   think-free closed loop saturates at one worker and the domain axis
   measures nothing. *)
let spec ~full =
  let duration_ms = Loadgen.duration_from_env ~default:150 in
  { mechanisms = (if full then [ "epoch"; "semaphore" ] else [ "epoch" ]);
    domains = (if full then [ 1; 2; 4 ] else [ 1; 4 ]);
    think_us = 500;
    read_pct = 95;
    duration_ms;
    warmup_ms = Loadgen.warmup_for duration_ms;
    seed = 42 }

let run ?progress spec =
  Cell.grid ?progress
    ~params:{ Target.default_params with read_pct = spec.read_pct }
    ~targets:
      (List.map (fun m -> (`Default, "readers-writers", m)) spec.mechanisms)
    ~domains:spec.domains
    { Loadgen.default_config with
      duration_ms = spec.duration_ms; warmup_ms = spec.warmup_ms;
      seed = spec.seed; think_us = spec.think_us }

let read_per_s (c : Cell.t) =
  match c.summary with
  | Some s -> (
    match List.find_opt (fun o -> o.Summary.op = "read") s.Summary.per_op with
    | Some o ->
      float_of_int o.Summary.count *. 1e9 /. Int64.to_float s.Summary.elapsed_ns
    | None -> 0.)
  | None -> 0.

(* Only the ["epoch"] rows are held to the claim — reference mechanisms
   ride along for the side-by-side, serializing as they please. *)
let epoch_monotonic doc =
  let rates =
    Bench_doc.select doc ~coords:[ ("mechanism", Emit.Str "epoch") ]
    |> List.filter_map (fun r ->
           match
             (Option.bind (Bench_doc.coord "domains" r) Emit.number,
              Bench_doc.metric "read_per_s" r)
           with
           | Some d, Some rate -> Some (d, rate)
           | _ -> None)
    |> List.sort compare
  in
  let rec climbs = function
    | (_, a) :: ((_, b) :: _ as rest) -> b > a && climbs rest
    | _ -> true
  in
  List.length rates >= 2 && climbs rates

(* Wheel scaling: per-tick cost of the hierarchical timer wheel as the
   pending-alarm population grows 1k -> 1M. Every alarm is scheduled
   past the timed window (random deadlines spread over a 2^24-tick
   span), so the measured ticks pay empty-bucket scans and level
   cascades but never a firing — the steady-state cost an alarm clock
   holding N sleepers pays per tick. O(1) amortized tick cost means the
   ns/tick column stays flat as pending grows 1000x; a scan-all-alarms
   implementation would show ~1000x. *)

type wheel_row = {
  pending : int;
  add_ns_per_alarm : float;
  tick_ns : float;
  intact : bool;  (* nothing fired or went missing in the timed window *)
}

let wheel_ticks = 65_536

let wheel_span = 1 lsl 24

let wheel_row pending =
  let module W = Sync_platform.Timerwheel in
  let w = W.create () in
  let rng = Random.State.make [| 0x5ca1ab1e + pending |] in
  let warmup_ticks = 1_024 in
  let now_ns () = Int64.to_int (Sync_platform.Clock.now_ns ()) in
  let t_add = now_ns () in
  for _ = 1 to pending do
    ignore
      (W.add w
         ~delay:(warmup_ticks + wheel_ticks + 1 + Random.State.int rng wheel_span)
         ())
  done;
  let add_ns = now_ns () - t_add in
  (* A short untimed advance warms the bucket caches, and a full major
     collection keeps the GC debt of the million fresh alarm records
     from being paid inside the timed window — the timed ticks should
     measure the wheel, not the allocator's past. *)
  ignore (W.advance w ~ticks:warmup_ticks (fun _ () -> ()));
  Gc.full_major ();
  let t0 = now_ns () in
  let fired = W.advance w ~ticks:wheel_ticks (fun _ () -> ()) in
  let tick_ns = float_of_int (now_ns () - t0) /. float_of_int wheel_ticks in
  { pending; add_ns_per_alarm = float_of_int add_ns /. float_of_int pending;
    tick_ns; intact = fired = 0 && W.pending w = pending }

let wheel_populations = [ 1_000; 10_000; 100_000; 1_000_000 ]

(* The run's first timed tick loop reads slow whichever population it
   prices, so one untimed pass at the smallest population goes first
   and is discarded. *)
let wheel_rows () =
  ignore (wheel_row (List.hd wheel_populations));
  List.map wheel_row wheel_populations

(* Max/min per-tick cost across the populations: the flatness number
   the committed document records and the full run gates on. *)
let wheel_ratio rows =
  let costs = List.map (fun r -> r.tick_ns) rows in
  let mn = List.fold_left Float.min Float.max_float costs in
  let mx = List.fold_left Float.max 0. costs in
  if mn > 0. then mx /. mn else Float.infinity

let wheel_row_doc r =
  Bench_doc.row
    ~status:
      (if r.intact then Bench_doc.Supported
       else Bench_doc.Failed "an alarm fired or went missing in the timed window")
    [ ("pending", Emit.Int r.pending) ]
    [ ("add_ns_per_alarm", r.add_ns_per_alarm); ("tick_ns", r.tick_ns) ]

(* The wheel rows follow the epoch rows, told apart by their one
   coordinate, [pending]. *)
let to_json ?(wheel = []) spec rows =
  let doc summary =
    Bench_doc.document ~experiment:"E23"
      ~description:
        "scalable reader entry: the epoch read-mostly readers-writers path \
         (and a serializing reference) at increasing domain counts with \
         closed-loop think time; E23's queue-lock rows are the tier grid's \
         E23 selection; timer-wheel rows price one tick at 1k..1M pending \
         alarms"
      ~params:
        ([ ("mode", Emit.Str "closed"); ("backend", Emit.Str "domain");
           ("duration_ms", Emit.Int spec.duration_ms);
           ("warmup_ms", Emit.Int spec.warmup_ms); ("seed", Emit.Int spec.seed);
           ("think_us", Emit.Int spec.think_us);
           ("read_pct", Emit.Int spec.read_pct);
           ("mechanisms", Emit.strings spec.mechanisms);
           ("domain_counts", Emit.ints spec.domains) ]
        @
        if wheel = [] then []
        else
          [ ("ticks_timed", Emit.Int wheel_ticks);
            ("deadline_span_ticks", Emit.Int wheel_span) ])
      ~summary
      (List.map
         (fun (r : Cell.row) ->
           Cell.row_doc ~extra:[ ("read_per_s", read_per_s r.cell) ] r)
         rows
      @ List.map wheel_row_doc wheel)
  in
  doc
    (("epoch_monotonic", Emit.Bool (epoch_monotonic (doc [])))
    ::
    (if wheel = [] then []
     else [ ("tick_cost_max_over_min", Emit.Float (wheel_ratio wheel)) ]))
