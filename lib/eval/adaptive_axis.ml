(* E27: self-tuning synchronization, measured. One grid: for each
   problem x arrival-process x domain-count cell, the same load target
   is run on every static tier (default / fast / queue) and once on the
   adaptive tier, where each platform mutex is a hot-swappable site the
   feedback controller retiers live from the contention probes. Probe
   tracing is enabled for {e every} row — the controller needs it, so
   the static rows pay the same observation overhead and the
   tier-to-tier ratios stay honest (the [traced] field records it).

   The axis's claims, both computed over measured cells only:

   - {e never worst}: the adaptive row never falls below the worst
     static tier (with a small noise allowance) — the blocking CI gate;
   - {e win rate}: the fraction of cells where the adaptive row matches
     or beats the {e best} static tier — the headline the committed
     BENCH_E27.json tracks at 0.8. *)

open Sync_metrics
open Sync_workload
module Queuelock = Sync_prims.Queuelock

type row = {
  problem : string;
  mechanism : string;
  arrival : Loadgen.arrival;
  domains : int;
  tier : string;
  cell : Cell.t;
}

type t = { rows : row list }

type spec = {
  cells : (string * string) list;  (* problem, mechanism *)
  static_tiers : Target.tier list;
  arrivals : Loadgen.arrival list;
  domains : int list;
  rate_per_s : float;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
  never_worst_slack : float;  (* noise allowance on the blocking claim *)
  win_slack : float;  (* "matches best" allowance on the win rate *)
}

(* The default grid holds one producer/consumer, one read-mostly and
   one timer-driven problem under arrival processes whose contention
   regime differs (steady, slowly swinging, bursty) — the situations a
   static tier choice cannot serve all of at once. The window is longer
   than the other axes' defaults because the claims are steady-state
   ones: the controller spends its first three or four sampling windows
   observing and flipping, and a window short enough to be dominated by
   that ramp-up measures the transition, not the tuned system. *)
let default_spec () =
  { cells =
      [ ("bounded-buffer", "semaphore"); ("readers-writers", "monitor");
        ("alarm-clock", "wheel") ];
    static_tiers = [ `Default; `Fast; `Queue Queuelock.MCS ];
    arrivals = [ Loadgen.Poisson; Loadgen.Diurnal; Loadgen.Bursty ];
    domains = [ 4 ];
    rate_per_s = 20_000.;
    duration_ms = Loadgen.duration_from_env ~default:350;
    warmup_ms = 50;
    seed = 42;
    never_worst_slack = 0.85;
    (* "Matches the best static tier" tolerates 10%: the hot-swap
       indirection costs a few percent on every acquire, and cell noise
       on a small box is the same order — the claim separates "picked
       the right tier" from "lost to it outright". *)
    win_slack = 0.9 }

let run ?(progress = ignore) spec =
  let rows =
    List.concat_map
      (fun (problem, mechanism) ->
        List.concat_map
          (fun arrival ->
            List.concat_map
              (fun domains ->
                List.map
                  (fun tier ->
                    let cell =
                      Cell.measure ~tier ~traced:true ~problem ~mechanism
                        { Loadgen.workers = domains; backend = `Domain;
                          duration_ms = spec.duration_ms;
                          warmup_ms = spec.warmup_ms;
                          mode =
                            Loadgen.Open_loop
                              { rate_per_s = spec.rate_per_s; arrival };
                          seed = spec.seed; think_us = 0 }
                    in
                    let r =
                      { problem; mechanism; arrival; domains;
                        tier = Sync_prims.Tier.name tier; cell }
                    in
                    progress r;
                    r)
                  (spec.static_tiers @ [ `Adaptive ]))
              spec.domains)
          spec.arrivals)
      spec.cells
  in
  { rows }

let row_ok r = Cell.ok r.cell

let all_ok t = List.for_all row_ok t.rows

let throughput r = r.cell.Cell.throughput_per_s

(* Group rows into comparison cells: same problem/arrival/domains,
   different tier. Only fully measured groups participate in claims. *)
let groups t =
  let key r = (r.problem, r.mechanism, r.arrival, r.domains) in
  let keys =
    List.sort_uniq compare (List.map key (List.filter row_ok t.rows))
  in
  List.filter_map
    (fun k ->
      let rs = List.filter (fun r -> row_ok r && key r = k) t.rows in
      let adaptive = List.find_opt (fun r -> r.tier = "adaptive") rs in
      let static = List.filter (fun r -> r.tier <> "adaptive") rs in
      match (adaptive, static) with
      | Some a, _ :: _ -> Some (a, static)
      | _ -> None)
    keys

let never_worst ~slack t =
  let gs = groups t in
  gs <> []
  && List.for_all
       (fun (a, static) ->
         let worst =
           List.fold_left
             (fun acc r -> Float.min acc (throughput r))
             Float.max_float static
         in
         throughput a >= worst *. slack)
       gs

let win_rate ~slack t =
  match groups t with
  | [] -> 0.
  | gs ->
    let wins =
      List.length
        (List.filter
           (fun (a, static) ->
             let best =
               List.fold_left (fun acc r -> Float.max acc (throughput r)) 0.
                 static
             in
             throughput a >= best *. slack)
           gs)
    in
    float_of_int wins /. float_of_int (List.length gs)

let total_flips t =
  List.fold_left (fun acc r -> acc + r.cell.Cell.flips) 0 t.rows

let row_doc r =
  Cell.doc
    ~extra:[ ("flips", float_of_int r.cell.Cell.flips) ]
    [ ("tier", Emit.Str r.tier); ("problem", Emit.Str r.problem);
      ("mechanism", Emit.Str r.mechanism);
      ("arrival", Emit.Str (Loadgen.arrival_name r.arrival));
      ("domains", Emit.Int r.domains) ]
    r.cell

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

let wheel_rows () = List.map wheel_row [ 1_000; 10_000; 100_000; 1_000_000 ]

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

(* The wheel rows follow the grid rows, told apart by their one
   coordinate, [pending]. *)
let to_json ?(wheel = []) spec t =
  Bench_doc.document ~experiment:"E27"
    ~description:
      "self-tuning tier: each problem x arrival x domain cell run on every \
       static platform tier and on the adaptive tier, where a feedback \
       controller retiers hot-swappable mutex sites live from the \
       contention probes; probe tracing on for every row"
    ~params:
      ([ ("mode", Emit.Str "open"); ("backend", Emit.Str "domain");
         ("traced", Emit.Bool true); ("rate_per_s", Emit.Float spec.rate_per_s);
         ("duration_ms", Emit.Int spec.duration_ms);
         ("warmup_ms", Emit.Int spec.warmup_ms); ("seed", Emit.Int spec.seed);
         ("never_worst_slack", Emit.Float spec.never_worst_slack);
         ("win_slack", Emit.Float spec.win_slack);
         ("pairs",
          Emit.List (List.map (fun (p, m) -> Emit.strings [ p; m ]) spec.cells));
         ("static_tiers", Emit.strings (List.map Sync_prims.Tier.name spec.static_tiers));
         ("arrivals", Emit.strings (List.map Loadgen.arrival_name spec.arrivals));
         ("domain_counts", Emit.ints spec.domains) ]
      @
      if wheel = [] then []
      else
        [ ("ticks_timed", Emit.Int wheel_ticks);
          ("deadline_span_ticks", Emit.Int wheel_span) ])
    ~summary:
      ([ ("never_worst", Emit.Bool (never_worst ~slack:spec.never_worst_slack t));
         ("win_rate", Emit.Float (win_rate ~slack:spec.win_slack t));
         ("flips", Emit.Int (total_flips t)) ]
      @
      if wheel = [] then []
      else [ ("tick_cost_max_over_min", Emit.Float (wheel_ratio wheel)) ])
    (List.map row_doc t.rows @ List.map wheel_row_doc wheel)
