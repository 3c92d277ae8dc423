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
module Probe = Sync_trace.Probe
module Controller = Sync_adaptive.Controller

type status = Supported | Failed of string

type row = {
  problem : string;
  mechanism : string;
  arrival : Loadgen.arrival;
  domains : int;
  tier : string;
  status : status;
  throughput_per_s : float;
  p50_ns : int;
  p99_ns : int;
  flips : int;  (* controller flips during the run; 0 on static rows *)
}

type t = { rows : row list }

let empty = { rows = [] }

let is_empty t = t.rows = []

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

let dead_row ~problem ~mechanism ~arrival ~domains ~tier status =
  { problem; mechanism; arrival; domains; tier; status;
    throughput_per_s = 0.; p50_ns = 0; p99_ns = 0; flips = 0 }

let cell spec ~problem ~mechanism ~arrival ~domains ~(tier : Target.tier) =
  let cfg =
    { Loadgen.workers = domains; backend = `Domain;
      duration_ms = spec.duration_ms; warmup_ms = spec.warmup_ms;
      mode = Loadgen.Open_loop { rate_per_s = spec.rate_per_s; arrival };
      seed = spec.seed; think_us = 0 }
  in
  let tier_s = Sync_prims.Tier.name tier in
  let dead = dead_row ~problem ~mechanism ~arrival ~domains ~tier:tier_s in
  match Target.create ~tier ~problem ~mechanism () with
  | Error e -> dead (Failed e)
  | exception e -> dead (Failed (Printexc.to_string e))
  | Ok inst -> (
    let go () =
      match tier with
      | `Adaptive ->
        let report, ctrl =
          Controller.with_controller (fun () -> Loadgen.run inst cfg)
        in
        (report, Controller.flips ctrl)
      | _ -> (Loadgen.run inst cfg, 0)
    in
    match Probe.with_tracing go with
    | (report, flips), _events ->
      let s = report.Report.summary in
      if s.Summary.total_failures > 0 then
        dead
          (Failed (Printf.sprintf "%d op failures" s.Summary.total_failures))
      else
        let q f = Summary.overall_quantile s f in
        { problem; mechanism; arrival; domains; tier = tier_s;
          status = Supported; throughput_per_s = s.Summary.throughput_per_s;
          p50_ns = q (fun o -> o.Summary.p50_ns);
          p99_ns = q (fun o -> o.Summary.p99_ns); flips }
    | exception e -> dead (Failed (Printexc.to_string e)))

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
                    let r =
                      cell spec ~problem ~mechanism ~arrival ~domains ~tier
                    in
                    progress r;
                    r)
                  (spec.static_tiers @ [ `Adaptive ]))
              spec.domains)
          spec.arrivals)
      spec.cells
  in
  { rows }

let row_ok r = match r.status with Failed _ -> false | Supported -> true

let all_ok t = List.for_all row_ok t.rows

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

let never_worst ?slack t =
  let gs = groups t in
  gs <> []
  && List.for_all
       (fun ((a : row), static) ->
         let slack =
           match slack with
           | Some s -> s
           | None -> 0.85 (* default_spec's never_worst_slack *)
         in
         let worst =
           List.fold_left
             (fun acc r -> Float.min acc r.throughput_per_s)
             Float.max_float static
         in
         a.throughput_per_s >= worst *. slack)
       gs

let win_rate ?(slack = 0.95) t =
  match groups t with
  | [] -> 0.
  | gs ->
    let wins =
      List.length
        (List.filter
           (fun ((a : row), static) ->
             let best =
               List.fold_left
                 (fun acc r -> Float.max acc r.throughput_per_s)
                 0. static
             in
             a.throughput_per_s >= best *. slack)
           gs)
    in
    float_of_int wins /. float_of_int (List.length gs)

let total_flips t =
  List.fold_left (fun acc r -> acc + r.flips) 0 t.rows

let status_string = function
  | Supported -> "ok"
  | Failed e -> "FAILED: " ^ e

let pp ppf t =
  Format.fprintf ppf "  %-16s %-10s %-8s %7s %-9s %12s %9s %9s %6s  %s@."
    "problem" "mechanism" "arrival" "domains" "tier" "ops/s" "p50 ns"
    "p99 ns" "flips" "status";
  List.iter
    (fun r ->
      match r.status with
      | Supported ->
        Format.fprintf ppf
          "  %-16s %-10s %-8s %7d %-9s %12.0f %9d %9d %6d  %s@." r.problem
          r.mechanism
          (Loadgen.arrival_name r.arrival)
          r.domains r.tier r.throughput_per_s r.p50_ns r.p99_ns r.flips
          (status_string r.status)
      | Failed _ ->
        Format.fprintf ppf
          "  %-16s %-10s %-8s %7d %-9s %12s %9s %9s %6s  %s@." r.problem
          r.mechanism
          (Loadgen.arrival_name r.arrival)
          r.domains r.tier "-" "-" "-" "-" (status_string r.status))
    t.rows;
  Format.fprintf ppf
    "  adaptive never below worst static: %b   win rate vs best static: \
     %.2f   flips: %d@."
    (never_worst t) (win_rate t) (total_flips t)

let row_to_json r =
  Emit.Obj
    ([ ("problem", Emit.Str r.problem);
       ("mechanism", Emit.Str r.mechanism);
       ("arrival", Emit.Str (Loadgen.arrival_name r.arrival));
       ("domains", Emit.Int r.domains); ("tier", Emit.Str r.tier) ]
    @ (match r.status with
      | Supported -> [ ("status", Emit.Str "supported") ]
      | Failed e ->
        [ ("status", Emit.Str "failed"); ("error", Emit.Str e) ])
    @
    match r.status with
    | Supported ->
      [ ("throughput_per_s", Emit.Float r.throughput_per_s);
        ("p50_ns", Emit.Int r.p50_ns); ("p99_ns", Emit.Int r.p99_ns);
        ("flips", Emit.Int r.flips) ]
    | _ -> [])

let rows_to_json t =
  Emit.Obj
    [ ("rows", Emit.List (List.map row_to_json t.rows));
      ("never_worst", Emit.Bool (never_worst t));
      ("win_rate", Emit.Float (win_rate t));
      ("flips", Emit.Int (total_flips t)) ]

let to_json spec t =
  Emit.Obj
    [ ("experiment", Emit.Str "E27");
      ("description",
       Emit.Str
         "self-tuning tier: each problem x arrival x domain cell run on \
          every static platform tier and on the adaptive tier, where a \
          feedback controller retiers hot-swappable mutex sites live from \
          the contention probes; probe tracing on for every row");
      ("mode", Emit.Str "open");
      ("backend", Emit.Str "domain");
      ("traced", Emit.Bool true);
      ("rate_per_s", Emit.Float spec.rate_per_s);
      ("duration_ms", Emit.Int spec.duration_ms);
      ("warmup_ms", Emit.Int spec.warmup_ms);
      ("seed", Emit.Int spec.seed);
      ("never_worst_slack", Emit.Float spec.never_worst_slack);
      ("win_slack", Emit.Float spec.win_slack);
      ("ocaml", Emit.Str Sys.ocaml_version);
      ("recommended_domains", Emit.Int (Domain.recommended_domain_count ()));
      ("cells",
       Emit.List
         (List.map
            (fun (p, m) -> Emit.List [ Emit.Str p; Emit.Str m ])
            spec.cells));
      ("static_tiers",
       Emit.List
         (List.map (fun s -> Emit.Str (Sync_prims.Tier.name s))
            spec.static_tiers));
      ("arrivals",
       Emit.List
         (List.map (fun a -> Emit.Str (Loadgen.arrival_name a)) spec.arrivals));
      ("domain_counts", Emit.List (List.map (fun d -> Emit.Int d) spec.domains));
      ("never_worst", Emit.Bool (never_worst ~slack:spec.never_worst_slack t));
      ("win_rate", Emit.Float (win_rate ~slack:spec.win_slack t));
      ("flips", Emit.Int (total_flips t));
      ("rows", Emit.List (List.map row_to_json t.rows)) ]
