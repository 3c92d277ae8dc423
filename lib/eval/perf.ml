open Sync_metrics
open Sync_workload

let throughput (c : Sweep.cell) =
  c.Sweep.report.Report.summary.Summary.throughput_per_s

(* One grid row: the overall latency ladder, then every per-op field. *)
let cell_row (c : Sweep.cell) =
  let r = c.Sweep.report in
  let s = r.Report.summary in
  let q f = float_of_int (Summary.overall_quantile s f) in
  Bench_doc.row
    [ ("tier", Emit.Str r.Report.tier); ("problem", Emit.Str r.Report.problem);
      ("mechanism", Emit.Str r.Report.mechanism);
      ("variant", Emit.Str r.Report.variant); ("domains", Emit.Int c.Sweep.domains) ]
    ([ ("throughput_per_s", s.Summary.throughput_per_s);
       ("total_ops", float_of_int s.Summary.total_ops);
       ("total_failures", float_of_int s.Summary.total_failures);
       ("p50_ns", q (fun o -> o.Summary.p50_ns));
       ("p95_ns", q (fun o -> o.Summary.p95_ns));
       ("p99_ns", q (fun o -> o.Summary.p99_ns));
       ("p999_ns", q (fun o -> o.Summary.p999_ns));
       ("max_ns", q (fun o -> o.Summary.max_ns)) ]
    @ Bench_doc.per_op s)

let sweep_doc ~problem ~mechanism ~(base : Loadgen.config) cells =
  Bench_doc.document ~experiment:"E20"
    ~description:"domain-scaling sweep: one target at increasing worker counts"
    ~params:
      [ ("problem", Emit.Str problem); ("mechanism", Emit.Str mechanism);
        ("mode",
         Emit.Str
           (match base.mode with
           | Loadgen.Closed -> "closed"
           | Loadgen.Open_loop _ -> "open"));
        ("duration_ms", Emit.Int base.duration_ms);
        ("warmup_ms", Emit.Int base.warmup_ms); ("seed", Emit.Int base.seed) ]
    (List.map cell_row cells)

let coverage_errors () =
  List.concat_map
    (fun problem ->
      List.filter_map
        (fun mechanism ->
          match Target.create ~problem ~mechanism () with
          | Error e -> Some (Printf.sprintf "%s@%s: %s" problem mechanism e)
          | Ok instance ->
            let meta = instance.Target.meta in
            instance.Target.stop ();
            let found =
              Registry.find ~problem:meta.Sync_taxonomy.Meta.problem
                ~variant:meta.Sync_taxonomy.Meta.variant
                ~mechanism:meta.Sync_taxonomy.Meta.mechanism
            in
            if Option.is_some found then None
            else
              Some
                (Printf.sprintf
                   "workload target %s is not a registered solution"
                   (Sync_taxonomy.Meta.id meta)))
        (Target.mechanisms ~problem))
    Target.problems

(* The default -> fast speedup per cell of a tier grid: the number the
   E22 acceptance gate (>= 1.3x on a contended 4-domain cell) reads. *)
let pp_speedups ppf cells =
  List.iter
    (fun (c : Sweep.cell) ->
      let r = c.Sweep.report in
      if r.Report.tier = "fast" then
        match
          List.find_opt
            (fun (d : Sweep.cell) ->
              let r' = d.Sweep.report in
              r'.Report.tier = "default"
              && r'.Report.mechanism = r.Report.mechanism
              && r'.Report.problem = r.Report.problem
              && d.Sweep.domains = c.Sweep.domains)
            cells
        with
        | Some d when throughput d > 0.0 ->
          Format.fprintf ppf "%-12s %-18s d=%d fast/default %.2fx@."
            r.Report.mechanism r.Report.problem c.Sweep.domains
            (throughput c /. throughput d)
        | _ -> ())
    cells
