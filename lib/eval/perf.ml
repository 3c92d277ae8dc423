open Sync_metrics
open Sync_workload

let throughput (c : Sweep.cell) =
  c.Sweep.report.Report.summary.Summary.throughput_per_s

let p99 (c : Sweep.cell) =
  Summary.overall_quantile c.Sweep.report.Report.summary (fun o ->
      o.Summary.p99_ns)

let cell_line (c : Sweep.cell) =
  let r = c.Sweep.report in
  Printf.sprintf "%-12s %-18s %-8s d=%d %12.0f ops/s  p99 %d ns"
    r.Report.mechanism r.Report.problem r.Report.tier c.Sweep.domains
    (throughput c) (p99 c)

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

let pp ppf cells =
  Format.fprintf ppf "%-12s %-18s %-8s %7s %12s %10s %10s %10s %10s@."
    "mechanism" "problem" "tier" "domains" "ops/s" "p50 ns" "p95 ns" "p99 ns"
    "p99.9 ns";
  List.iter
    (fun (c : Sweep.cell) ->
      let r = c.Sweep.report in
      let q f = Summary.overall_quantile r.Report.summary f in
      Format.fprintf ppf "%-12s %-18s %-8s %7d %12.0f %10d %10d %10d %10d@."
        r.Report.mechanism r.Report.problem r.Report.tier c.Sweep.domains
        (throughput c)
        (q (fun o -> o.Summary.p50_ns))
        (q (fun o -> o.Summary.p95_ns))
        (p99 c)
        (q (fun o -> o.Summary.p999_ns)))
    cells

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
