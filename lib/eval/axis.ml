open Sync_metrics
open Sync_workload

type outcome = {
  ok : bool;
  pp : Format.formatter -> unit;
  json : Emit.t;
}

type t = {
  name : string;
  experiment : string;
  title : string;
  run : full:bool -> progress:(string -> unit) -> outcome;
}

(* An outcome is its report plus the named gates it was judged by: [ok]
   iff every gate held, and the report ends with one line per gate. The
   report is the document's table unless the axis prints its own. *)
let judged ?pp gates json =
  { ok = List.for_all snd gates;
    json;
    pp =
      (fun ppf ->
        (match pp with Some pp -> pp ppf | None -> Bench_doc.pp ppf json);
        List.iter
          (fun (what, held) ->
            Format.fprintf ppf "%s: %s@." (if held then "ok" else "FAILED") what)
          gates) }

let robustness =
  { name = "robustness"; experiment = "E19";
    title = "robustness (faults, cancellation, timeouts)";
    run =
      (fun ~full:_ ~progress ->
        let rows =
          Robustness.run
            ~progress:(fun r -> progress (Robustness.progress_line r))
            ()
        in
        judged
          [ ("all runs recovered", Robustness.all_recovered rows) ]
          (Robustness.to_json rows)) }

(* A grid on more than the default tier lists its tiers (E22). *)
let grid_doc ~experiment ~description (spec : Sweep.baseline_spec) cells =
  Bench_doc.document ~experiment ~description
    ~params:
      ([ ("mode", Emit.Str "closed"); ("backend", Emit.Str "domain");
         ("duration_ms", Emit.Int spec.duration_ms);
         ("warmup_ms", Emit.Int spec.warmup_ms); ("seed", Emit.Int spec.seed) ]
      @ (if spec.tiers = [ `Default ] then []
         else [ ("tiers", Emit.strings (List.map Sync_prims.Tier.name spec.tiers)) ])
      @ [ ("mechanisms", Emit.strings spec.mechanisms);
          ("problems", Emit.strings spec.problems);
          ("domain_counts", Emit.ints spec.domain_counts) ])
    (List.map Perf.cell_row cells)

(* E20 and E22 have one grid each; they pass when it completes. *)
let sweep_axis ~name ~experiment ~title ~description ?(pp = fun _ _ -> ()) spec =
  { name; experiment; title;
    run =
      (fun ~full:_ ~progress ->
        let spec = spec () in
        let line c = progress (Bench_doc.row_line (Perf.cell_row c)) in
        match Sweep.grid ~progress:line spec with
        | Ok cells ->
          let doc = grid_doc ~experiment ~description spec cells in
          judged [ ("grid completed", true) ]
            ~pp:(fun ppf ->
              Bench_doc.pp ppf doc;
              pp ppf cells)
            doc
        | Error e ->
          judged [ ("grid completed: " ^ e, false) ]
            (Bench_doc.document ~experiment ~description
               ~summary:[ ("error", Emit.Str e) ] [])) }

let perf =
  sweep_axis ~name:"perf" ~experiment:"E20"
    ~title:"performance (closed-loop throughput + tail latency)"
    ~description:
      "multicore workload baseline: closed-loop throughput and latency \
       quantiles per mechanism per problem per domain count"
    Sweep.default_baseline_spec

let tiers =
  sweep_axis ~name:"tiers" ~experiment:"E22"
    ~title:"substrate tiers (default vs fast on the E20 grid)"
    ~description:
      "contention-adaptive platform fast paths: the E20 grid run on both \
       substrate tiers (default stdlib-backed vs fast CAS/spin-then-park) \
       with identical seeds and windows; adjacent tier rows of one cell \
       measure the substrate, not the mechanism"
    ~pp:Perf.pp_speedups Sweep.default_e22_spec

let observability =
  { name = "observability"; experiment = "E21";
    title = "observability (traced contention, wake accounting)";
    run =
      (fun ~full:_ ~progress:_ ->
        let rows = Observability.run () in
        judged
          [ ("every mechanism produced a complete trace",
             Observability.all_ok rows) ]
          (Observability.to_json rows)) }

let service =
  { name = "service"; experiment = "E24";
    title = "service tier (deadlines, chaos, crash recovery)";
    run =
      (fun ~full:_ ~progress ->
        let rows =
          Service_axis.run
            ~progress:(fun (r : Service_axis.row) ->
              progress (Printf.sprintf "  [%s] %s" r.scenario r.detail))
            ()
        in
        judged
          [ ("every scenario recovered with zero hung connections",
             Service_axis.all_ok rows) ]
          (Service_axis.to_json rows)) }

(* Quick: single-domain cells, since d>1 spin-construction cells on a
   small shared box measure preemption, not the primitive. *)
let hierarchy =
  { name = "hierarchy"; experiment = "E25";
    title = "primitive hierarchy (restricted atomic classes)";
    run =
      (fun ~full ~progress ->
        let spec =
          { (Hierarchy_axis.default_spec ()) with
            domains = (if full then [ 1; 4 ] else [ 1 ]) }
        in
        let rows =
          Hierarchy_axis.run
            ~progress:(fun r -> progress (Bench_doc.row_line (Cell.row_doc r)))
            spec
        in
        judged
          [ ("every supported cell ran clean; unsupported cells are typed",
             Hierarchy_axis.all_ok rows) ]
          (Hierarchy_axis.to_json spec rows)) }

let scaling =
  { name = "scaling"; experiment = "E23";
    title = "scalable-lock tier (queue locks, epoch readers)";
    run =
      (fun ~full ~progress ->
        let module S = Scaling_axis in
        let spec = S.default_spec () in
        let t =
          S.run
            ~progress_queue:(fun r -> progress (Bench_doc.row_line (Cell.row_doc r)))
            ~progress_epoch:(fun r -> progress (Bench_doc.row_line (S.epoch_doc r)))
            spec
        in
        judged
          (("every measured cell ran clean; absent pairs are typed",
            S.all_ok t)
          ::
          (if full then
             [ ("epoch read throughput strictly rises with domains",
                S.epoch_monotonic t) ]
           else []))
          (S.to_json spec t)) }

(* Quick is the CI slice: two cells under two arrival processes at two
   domains, judged on the never-below-worst claim only, which survives
   shared-runner noise. Full is the committed grid plus the wheel rows
   and the claims that assume quiet cores. *)
let adaptive =
  { name = "adaptive"; experiment = "E27";
    title = "self-tuning tier (adaptive vs static, live retiering)";
    run =
      (fun ~full ~progress ->
        let module A = Adaptive_axis in
        let d = A.default_spec () in
        let spec =
          if full then { d with domains = [ 1; 2; 4 ] }
          else
            { d with
              cells =
                [ ("bounded-buffer", "semaphore"); ("alarm-clock", "wheel") ];
              arrivals = [ Loadgen.Poisson; Loadgen.Bursty ];
              domains = [ 2 ] }
        in
        let t =
          A.run ~progress:(fun r -> progress (Bench_doc.row_line (A.row_doc r))) spec
        in
        let wheel = if full then A.wheel_rows () else [] in
        let full_gates =
          if not full then []
          else
            [ ("adaptive win rate vs best static >= 0.8",
               A.win_rate ~slack:spec.win_slack t >= 0.8);
              ("no wheel alarm fired or went missing in the timed window",
               List.for_all (fun (r : A.wheel_row) -> r.intact) wheel);
              ("wheel tick cost flat across pending counts (max/min <= 10x)",
               A.wheel_ratio wheel <= 10.0) ]
        in
        judged
          ([ ("every measured cell ran clean", A.all_ok t);
             ("adaptive never below the worst static tier",
              A.never_worst ~slack:spec.never_worst_slack t) ]
          @ full_gates)
          (A.to_json ~wheel spec t)) }

let exploration =
  { name = "exploration"; experiment = "E26";
    title = "exploration (bounded DFS vs DPOR)";
    run =
      (fun ~full ~progress ->
        let rows =
          Exploration.run ~full
            ~progress:(fun r ->
              progress (Bench_doc.row_line (Exploration.row_doc r)))
            ()
        in
        judged
          [ ("every ground-truth row agrees", Exploration.sound rows) ]
          (Exploration.to_json rows)) }

let micro =
  { name = "micro"; experiment = "E7-E22";
    title = "micro-benchmarks (the rows no ladder metric or other axis prices)";
    run =
      (fun ~full ~progress ->
        let rows =
          Micro.run ~full ~progress:(fun r -> progress (Bench_doc.row_line r))
        in
        judged
          [ ("every row ran clean",
             List.for_all (fun (r : Bench_doc.row) -> r.status = Bench_doc.Supported) rows) ]
          (Micro.to_json ~full rows)) }

let all =
  [ robustness; perf; tiers; observability; service; hierarchy; scaling;
    adaptive; exploration; micro ]

let find name = List.find_opt (fun a -> a.name = name) all

let names = List.map (fun a -> a.name) all
