(* E20: the recorded multicore performance baseline — plus the E21
   perf-sanity and trace-overhead modes CI runs on every push.

   Default mode runs the full closed-loop grid behind BENCH_E20.json —
   every full-coverage mechanism x {bounded buffer, readers-writers,
   FCFS} x domain counts {1, 2, 4} — on real OCaml 5 domains, printing
   the throughput/tail table as it goes and writing the machine-readable
   document at the end. The committed BENCH_E20.json is this program's
   output on the reference box; future performance work is judged
   against it.

   --sanity BASELINE.json runs a three-cell subset and gates on it:
   any self-check failure fails the run, and so does a cell-to-cell
   throughput *ratio* drifting more than 5x from the committed
   baseline's ratio for the same pair. Ratios, not absolute numbers:
   CI boxes are slower than the reference box in ways that cancel out
   between cells, while a contention regression in one mechanism does
   not. With --e22-baseline BENCH_E22.json the same gate additionally
   covers default-vs-fast tier pairs (E22): a fast-path cell whose
   ratio against its default twin drifts 5x from the committed grid —
   the fast tier silently degrading to (or past) the slow one, or a
   default cell regressing — fails CI the same way.

   --e22 runs the default-vs-fast grid (every cell twice, once per
   platform substrate tier) and writes the side-by-side document
   behind the committed BENCH_E22.json.

   --e25 runs the hardware-primitive hierarchy grid (every mechanism x
   problem cell rebuilt on each restricted atomic class — rw, cas, faa,
   llsc — plus native) and writes the scorecard document behind the
   committed BENCH_E25.json; unsupported cells are typed rows, any
   correctness failure fails the run. With --e25-baseline
   BENCH_E25.json the sanity gate additionally measures a small set of
   supported restricted-class cells and checks their cross-ratios
   against the committed hierarchy grid, so a primitive construction
   that silently collapses (or a native cell that regresses against the
   restricted ones) fails CI like any other drift.

   --e27 runs the self-tuning grid (each problem x arrival-process x
   domain cell on every static tier and on the adaptive tier, where a
   feedback controller retiers hot-swappable mutex sites live from the
   contention probes — tracing enabled for every row so the ratios are
   honest) plus the timer-wheel scaling rows (tick cost at 1k..1M
   pending alarms), and writes the document behind the committed
   BENCH_E27.json. The run fails if any cell misbehaves, if the
   adaptive row falls below the worst static tier anywhere, if the win
   rate against the best static tier drops under 0.8, or if the wheel's
   per-tick cost grows materially with the pending count. With
   --e27-baseline BENCH_E27.json the sanity gate additionally measures
   a default/fast/adaptive triple on one open-loop cell and checks the
   cross-ratios against the committed grid, so a controller regression
   that drags the adaptive tier down fails CI like any other drift.

   --e23 runs the scalable-lock grids (mechanism x problem cells on the
   MCS/CLH/ticket queue-lock tier — absent pairs are typed unsupported
   rows, never 0 ops/s cells — plus the epoch read-mostly
   readers-writers path at 1/2/4 domains under closed-loop think time)
   and writes the document behind the committed BENCH_E23.json; the run
   fails if any measured cell misbehaves or the epoch read throughput
   is not monotonic in the domain count. With --e23-baseline
   BENCH_E23.json the sanity gate additionally measures queue-tier
   cells and checks their cross-ratios against the committed grid.

   --scaling BENCH_E23.json is the blocking scaling-sanity gate: it
   checks the committed epoch rows for strictly increasing read
   throughput 1 -> 2 -> 4 domains, then re-measures the 1- and 4-domain
   epoch cells live and fails unless the 4-domain read throughput is
   strictly above the 1-domain one.

   --ab runs one hot cell twice — tracing disabled, then enabled — and
   reports the throughput delta, plus the disabled path against the
   committed baseline when one is given. The disabled path is the claim
   that matters: probes compiled around one atomic load must cost ~0.

   Knobs: SYNC_LOAD_MS shortens each cell's steady window (CI uses it);
   --out FILE (or a bare FILE argument) overrides the output path
   (default bench-load.json, BENCH_E20.json when regenerating the
   committed baseline). *)

open Sync_workload
module Emit = Sync_metrics.Emit
module Summary = Sync_metrics.Summary
module Probe = Sync_trace.Probe

(* The CI subset: two single-domain FCFS cells with different mechanisms
   (pure synchronizer cost) and one contended 4-domain buffer cell. *)
let sanity_cells =
  [ ("semaphore", "fcfs", 1); ("monitor", "fcfs", 1);
    ("ccr", "bounded-buffer", 4) ]

(* The E22 subset: the same cells on both substrate tiers, so every
   cross-ratio the gate checks includes default-vs-fast pairs. *)
let e22_sanity_cells =
  [ ("semaphore", "fcfs", 1, `Default); ("semaphore", "fcfs", 1, `Fast);
    ("ccr", "bounded-buffer", 4, `Default);
    ("ccr", "bounded-buffer", 4, `Fast) ]

(* The E25 subset: single-domain cells only (contended restricted-class
   cells are preemption-bound on small CI boxes), one per measured
   class, on a mechanism every class supports, plus the native twin the
   ratios anchor on. *)
let e25_sanity_cells =
  [ ("monitor", "fcfs", 1, `Default);
    ("monitor", "fcfs", 1, `Prim Sync_prims.Prims.CAS);
    ("monitor", "fcfs", 1, `Prim Sync_prims.Prims.FAA);
    ("monitor", "fcfs", 1, `Prim Sync_prims.Prims.LLSC) ]

(* The E23 subset: one single-domain cell per queue-lock kind on a
   monitor target (condition waits exercise the park-lot handoff), so
   the cross-ratios compare the three kinds against each other. *)
let e23_sanity_cells =
  [ ("monitor", "bounded-buffer", 1, Sync_prims.Queuelock.MCS);
    ("monitor", "bounded-buffer", 1, Sync_prims.Queuelock.CLH);
    ("monitor", "bounded-buffer", 1, Sync_prims.Queuelock.Ticket) ]

let cell_id (m, p, d) = Printf.sprintf "%s/%s d=%d" m p d

let tiered_id (m, p, d, tier) =
  Printf.sprintf "%s [%s]" (cell_id (m, p, d)) (Sync_prims.Tier.name tier)

let run_cell ?(tier = `Default) ~duration_ms (mechanism, problem, domains) =
  match Target.create ~tier ~problem ~mechanism () with
  | Error e ->
    Printf.eprintf "sanity: %s\n" e;
    exit 2
  | Ok instance ->
    let cfg =
      { Loadgen.default_config with
        Loadgen.workers = domains;
        backend = `Domain;
        duration_ms;
        warmup_ms = 50 }
    in
    let s = (Loadgen.run instance cfg).Report.summary in
    (s.Summary.throughput_per_s, s.Summary.total_failures)

(* [tier = None] matches rows with no tier field too (the committed
   BENCH_E20.json predates tiers); [Some t] requires an exact match
   (BENCH_E22.json rows always carry one). *)
let baseline_throughput ?tier doc ~cell:(mechanism, problem, domains) =
  let field name r = Emit.member name r in
  let rows = Option.value ~default:Emit.Null (Emit.member "rows" doc) in
  List.find_map
    (fun r ->
      let tier_ok =
        match tier with
        | None -> true
        | Some t -> (
          match field "tier" r with
          | Some (Emit.Str s) -> s = Sync_prims.Tier.name t
          | _ -> false)
      in
      match (field "mechanism" r, field "problem" r, field "domains" r) with
      | Some (Emit.Str m), Some (Emit.Str p), Some d
        when tier_ok && m = mechanism && p = problem
             && Emit.number d = Some (float_of_int domains) ->
        Option.bind (field "throughput_per_s" r) Emit.number
      | _ -> None)
    (Emit.to_list rows)

(* Supported rows of the committed hierarchy grid (BENCH_E25.json):
   keyed by class name — [`Default] measurements anchor on the
   unrestricted ["native"] rows. Unsupported/failed rows never match, so
   a baseline regenerated on a box where a cell stopped being supported
   surfaces as "missing from baseline", not a silent pass. *)
let e25_baseline_throughput doc ~cell:(mechanism, problem, domains, tier) =
  let cls_name =
    match tier with
    | `Prim c -> Sync_prims.Prims.cls_name c
    | _ -> "native"
  in
  let field name r = Emit.member name r in
  let rows = Option.value ~default:Emit.Null (Emit.member "rows" doc) in
  List.find_map
    (fun r ->
      match
        ( field "class" r, field "mechanism" r, field "problem" r,
          field "domains" r, field "status" r )
      with
      | ( Some (Emit.Str c), Some (Emit.Str m), Some (Emit.Str p), Some d,
          Some (Emit.Str st) )
        when c = cls_name && st = "supported" && m = mechanism && p = problem
             && Emit.number d = Some (float_of_int domains) ->
        Option.bind (field "throughput_per_s" r) Emit.number
      | _ -> None)
    (Emit.to_list rows)

(* Supported rows of the committed E23 queue grid (BENCH_E23.json),
   keyed by queue-lock kind. Typed unsupported rows never match. *)
let e23_baseline_throughput doc ~cell:(mechanism, problem, domains, kind) =
  let kind_name = Sync_prims.Queuelock.kind_name kind in
  let field name r = Emit.member name r in
  let rows = Option.value ~default:Emit.Null (Emit.member "queue_rows" doc) in
  List.find_map
    (fun r ->
      match
        ( field "kind" r, field "mechanism" r, field "problem" r,
          field "domains" r, field "status" r )
      with
      | ( Some (Emit.Str k), Some (Emit.Str m), Some (Emit.Str p), Some d,
          Some (Emit.Str st) )
        when k = kind_name && st = "supported" && m = mechanism && p = problem
             && Emit.number d = Some (float_of_int domains) ->
        Option.bind (field "throughput_per_s" r) Emit.number
      | _ -> None)
    (Emit.to_list rows)

(* Supported rows of the committed E27 adaptive grid (BENCH_E27.json),
   keyed by the full (problem, mechanism, arrival, domains, tier)
   coordinate. Failed rows never match. *)
let e27_baseline_throughput doc ~cell:(problem, mechanism, arrival, domains, tier)
    =
  let field name r = Emit.member name r in
  let rows = Option.value ~default:Emit.Null (Emit.member "rows" doc) in
  List.find_map
    (fun r ->
      match
        ( field "problem" r, field "mechanism" r, field "arrival" r,
          field "domains" r, field "tier" r, field "status" r )
      with
      | ( Some (Emit.Str p), Some (Emit.Str m), Some (Emit.Str a), Some d,
          Some (Emit.Str t), Some (Emit.Str st) )
        when st = "supported" && p = problem && m = mechanism && a = arrival
             && t = tier
             && Emit.number d = Some (float_of_int domains) ->
        Option.bind (field "throughput_per_s" r) Emit.number
      | _ -> None)
    (Emit.to_list rows)

let parse_baseline ~what file =
  try Emit.parse_file file
  with Sys_error e | Emit.Parse_error e ->
    Printf.eprintf "sanity: cannot read %s %s: %s\n" what file e;
    exit 2

(* One measured cell with its committed reference throughput. The gate
   below only ever compares ratios, so the group a cell came from (E20
   triple or E22 tier pair) does not matter. *)
let measure_cells ~failed cells =
  List.map
    (fun (id, run, lookup) ->
      let live, failures = run () in
      let base =
        match lookup () with
        | Some t -> t
        | None ->
          Printf.eprintf "sanity: %s missing from baseline\n" id;
          exit 2
      in
      Printf.printf "  %-34s %12.0f ops/s (baseline %12.0f)%s\n%!" id live
        base
        (if failures > 0 then
           Printf.sprintf "  %d SELF-CHECK FAILURE(S)" failures
         else "");
      if failures > 0 then failed := true;
      (id, live, base))
    cells

let check_drift ~factor ~failed cells =
  List.iteri
    (fun i (ci, li, bi) ->
      List.iteri
        (fun j (cj, lj, bj) ->
          if i < j then begin
            let live_ratio = li /. lj and base_ratio = bi /. bj in
            let drift = live_ratio /. base_ratio in
            let drift = if drift < 1.0 then 1.0 /. drift else drift in
            Printf.printf
              "  ratio %-34s / %-34s live %.3f baseline %.3f drift %.2fx\n%!"
              ci cj live_ratio base_ratio drift;
            if drift > factor then begin
              Printf.printf "    REGRESSION: drift exceeds %.0fx\n%!" factor;
              failed := true
            end
          end)
        cells)
    cells

let sanity ?e22_file ?e23_file ?e25_file ?e27_file baseline_file =
  let doc = parse_baseline ~what:"baseline" baseline_file in
  let duration_ms = Loadgen.duration_from_env ~default:200 in
  Printf.printf "perf sanity vs %s (%d ms per cell)\n%!" baseline_file
    duration_ms;
  let failed = ref false in
  let factor = 5.0 in
  let e20 =
    measure_cells ~failed
      (List.map
         (fun cell ->
           ( cell_id cell,
             (fun () -> run_cell ~duration_ms cell),
             fun () -> baseline_throughput doc ~cell ))
         sanity_cells)
  in
  check_drift ~factor ~failed e20;
  (match e22_file with
  | None -> ()
  | Some file ->
    let e22_doc = parse_baseline ~what:"E22 baseline" file in
    Printf.printf "fast-path sanity vs %s\n%!" file;
    let e22 =
      measure_cells ~failed
        (List.map
           (fun ((m, p, d, tier) as tc) ->
             ( tiered_id tc,
               (fun () -> run_cell ~tier ~duration_ms (m, p, d)),
               fun () ->
                 baseline_throughput ~tier e22_doc ~cell:(m, p, d) ))
           e22_sanity_cells)
    in
    check_drift ~factor ~failed e22);
  (match e25_file with
  | None -> ()
  | Some file ->
    let e25_doc = parse_baseline ~what:"E25 baseline" file in
    Printf.printf "primitive-hierarchy sanity vs %s\n%!" file;
    let e25 =
      measure_cells ~failed
        (List.map
           (fun ((m, p, d, tier) as tc) ->
             ( tiered_id (m, p, d, tier),
               (fun () -> run_cell ~tier ~duration_ms (m, p, d)),
               fun () -> e25_baseline_throughput e25_doc ~cell:tc ))
           e25_sanity_cells)
    in
    check_drift ~factor ~failed e25);
  (match e23_file with
  | None -> ()
  | Some file ->
    let e23_doc = parse_baseline ~what:"E23 baseline" file in
    Printf.printf "queue-lock sanity vs %s\n%!" file;
    let e23 =
      measure_cells ~failed
        (List.map
           (fun ((m, p, d, kind) as tc) ->
             ( tiered_id (m, p, d, `Queue kind),
               (fun () -> run_cell ~tier:(`Queue kind) ~duration_ms (m, p, d)),
               fun () -> e23_baseline_throughput e23_doc ~cell:tc ))
           e23_sanity_cells)
    in
    check_drift ~factor ~failed e23);
  (match e27_file with
  | None -> ()
  | Some file ->
    let e27_doc = parse_baseline ~what:"E27 baseline" file in
    Printf.printf "adaptive-tier sanity vs %s\n%!" file;
    (* One open-loop cell measured on default, fast and adaptive — the
       mini grid the cross-ratio gate reads. The rows come from the E27
       axis itself so the measurement (open loop, tracing on, live
       controller on the adaptive row) matches the committed grid. *)
    let module A = Sync_eval.Adaptive_axis in
    let spec =
      { (A.default_spec ()) with
        A.cells = [ ("bounded-buffer", "semaphore") ];
        arrivals = [ Loadgen.Poisson ];
        domains = [ 2 ];
        static_tiers = [ `Default; `Fast ];
        duration_ms }
    in
    let t = A.run spec in
    let e27 =
      List.map
        (fun (r : A.row) ->
          let id =
            Printf.sprintf "%s/%s %s d=%d [%s]" r.A.problem r.A.mechanism
              (Loadgen.arrival_name r.A.arrival)
              r.A.domains r.A.tier
          in
          (match r.A.status with
          | A.Supported -> ()
          | A.Failed e ->
            Printf.eprintf "sanity: %s failed: %s\n" id e;
            failed := true);
          let base =
            match
              e27_baseline_throughput e27_doc
                ~cell:
                  ( r.A.problem, r.A.mechanism,
                    Loadgen.arrival_name r.A.arrival, r.A.domains, r.A.tier )
            with
            | Some b -> b
            | None ->
              Printf.eprintf "sanity: %s missing from baseline\n" id;
              exit 2
          in
          Printf.printf "  %-40s %12.0f ops/s (baseline %12.0f)\n%!" id
            r.A.throughput_per_s base;
          (id, r.A.throughput_per_s, base))
        t.A.rows
    in
    check_drift ~factor ~failed e27);
  if !failed then begin
    Printf.printf "perf sanity FAILED\n%!";
    exit 1
  end
  else Printf.printf "perf sanity ok\n%!"

(* Tracing A/B: the hottest single-domain cell, best of three windows per
   arm so one scheduling hiccup doesn't decide the number. *)
let ab baseline_file out =
  let cell = ("semaphore", "fcfs", 1) in
  let duration_ms = Loadgen.duration_from_env ~default:200 in
  let best_of n f =
    let rec go n acc =
      if n = 0 then acc
      else begin
        let t, failures = f () in
        if failures > 0 then begin
          Printf.eprintf "ab: %d self-check failure(s)\n" failures;
          exit 1
        end;
        go (n - 1) (Float.max acc t)
      end
    in
    go n 0.0
  in
  Printf.printf "trace A/B on %s (best of 3 x %d ms per arm)\n%!"
    (cell_id cell) duration_ms;
  let off = best_of 3 (fun () -> run_cell ~duration_ms cell) in
  let on =
    best_of 3 (fun () ->
        (* Fresh rings per window: the run only pays for writing events,
           never for an unbounded snapshot. *)
        Probe.reset ();
        Probe.enable ();
        Fun.protect ~finally:Probe.disable (fun () ->
            run_cell ~duration_ms cell))
  in
  let overhead_pct = (off -. on) /. off *. 100.0 in
  Printf.printf
    "  tracing disabled %12.0f ops/s\n  tracing enabled  %12.0f ops/s\n  enabled overhead %.2f%%\n%!"
    off on overhead_pct;
  let baseline_delta =
    match baseline_file with
    | None -> None
    | Some file -> (
      match
        try Some (Emit.parse_file file) with Sys_error _ | Emit.Parse_error _ -> None
      with
      | None -> None
      | Some doc -> (
        match baseline_throughput doc ~cell with
        | None -> None
        | Some base ->
          let d = (base -. off) /. base *. 100.0 in
          Printf.printf "  disabled vs committed baseline: %.2f%%\n%!" d;
          Some d))
  in
  Emit.write_file out
    (Emit.Obj
       [ ( "trace_ab",
           Emit.Obj
             ([ ("cell", Emit.Str (cell_id cell));
                ("duration_ms", Emit.Int duration_ms);
                ("disabled_ops_per_s", Emit.Float off);
                ("enabled_ops_per_s", Emit.Float on);
                ("enabled_overhead_pct", Emit.Float overhead_pct) ]
             @
             match baseline_delta with
             | None -> []
             | Some d -> [ ("disabled_vs_baseline_pct", Emit.Float d) ]) ) ]);
  Printf.printf "wrote %s\n%!" out

let grid out =
  let spec = Sweep.default_baseline_spec () in
  Printf.printf
    "E20 baseline: %d mechanisms x %d problems x domains {%s}, %dms \
     steady (+%dms warmup) per cell, closed loop, seed %d\n\
     recommended domains on this box: %d\n\n%!"
    (List.length spec.Sweep.mechanisms)
    (List.length spec.Sweep.problems)
    (String.concat ", " (List.map string_of_int spec.Sweep.domain_counts))
    spec.Sweep.duration_ms spec.Sweep.warmup_ms spec.Sweep.seed
    (Domain.recommended_domain_count ());
  let progress (c : Sweep.cell) =
    let r = Sync_eval.Perf.row_of_cell c in
    Printf.printf "%-12s %-18s d=%d %12.0f ops/s  p99 %d ns\n%!"
      r.Sync_eval.Perf.mechanism r.Sync_eval.Perf.problem
      r.Sync_eval.Perf.domains r.Sync_eval.Perf.throughput_per_s
      r.Sync_eval.Perf.p99_ns
  in
  match Sweep.baseline ~progress spec with
  | Error e ->
    Printf.eprintf "baseline failed: %s\n" e;
    exit 1
  | Ok cells ->
    print_newline ();
    Sync_eval.Perf.pp Format.std_formatter (Sync_eval.Perf.of_cells cells);
    Sync_metrics.Emit.write_file out (Sweep.baseline_to_json spec cells);
    Printf.printf "\nwrote %s (%d cells)\n%!" out (List.length cells)

(* The E22 default-vs-fast grid: every (mechanism, problem, domains)
   cell twice — stdlib-backed tier, then the contention-adaptive fast
   tier — identical seed and windows, so adjacent rows isolate the
   substrate. *)
let e22_grid out =
  let spec = Sweep.default_e22_spec () in
  Printf.printf
    "E22 default-vs-fast grid: %d mechanisms x %d problems x domains {%s} \
     x 2 tiers, %dms steady (+%dms warmup) per cell, closed loop, seed %d\n\
     recommended domains on this box: %d\n\n%!"
    (List.length spec.Sweep.mechanisms)
    (List.length spec.Sweep.problems)
    (String.concat ", " (List.map string_of_int spec.Sweep.domain_counts))
    spec.Sweep.duration_ms spec.Sweep.warmup_ms spec.Sweep.seed
    (Domain.recommended_domain_count ());
  let progress (c : Sweep.cell) =
    let r = Sync_eval.Perf.row_of_cell c in
    Printf.printf "%-12s %-18s %-8s d=%d %12.0f ops/s  p99 %d ns\n%!"
      r.Sync_eval.Perf.mechanism r.Sync_eval.Perf.problem
      r.Sync_eval.Perf.tier r.Sync_eval.Perf.domains
      r.Sync_eval.Perf.throughput_per_s r.Sync_eval.Perf.p99_ns
  in
  match Sweep.e22 ~progress spec with
  | Error e ->
    Printf.eprintf "E22 grid failed: %s\n" e;
    exit 1
  | Ok cells ->
    (* Print the default -> fast speedup per cell: the number the
       acceptance gate (>= 1.3x on a contended 4-domain cell) reads. *)
    let throughput c =
      c.Sweep.report.Report.summary.Summary.throughput_per_s
    in
    print_newline ();
    List.iter
      (fun c ->
        let r = c.Sweep.report in
        if r.Report.tier = "fast" then
          let twin =
            List.find_opt
              (fun c' ->
                let r' = c'.Sweep.report in
                r'.Report.tier = "default"
                && r'.Report.mechanism = r.Report.mechanism
                && r'.Report.problem = r.Report.problem
                && c'.Sweep.domains = c.Sweep.domains)
              cells
          in
          match twin with
          | Some d when throughput d > 0.0 ->
            Printf.printf "%-12s %-18s d=%d fast/default %.2fx\n%!"
              r.Report.mechanism r.Report.problem c.Sweep.domains
              (throughput c /. throughput d)
          | _ -> ())
      cells;
    Sync_metrics.Emit.write_file out (Sweep.e22_to_json spec cells);
    Printf.printf "\nwrote %s (%d cells)\n%!" out (List.length cells)

(* The E25 hierarchy grid: every mechanism x problem target rebuilt on
   each restricted atomic class and the native substrate, typed
   unsupported rows for inexpressible cells, hard failure on any
   correctness violation. The committed BENCH_E25.json is this mode's
   output on the reference box. *)
let e25_grid out =
  let module H = Sync_eval.Hierarchy_axis in
  let spec = H.default_spec () in
  Printf.printf
    "E25 primitive-hierarchy grid: classes {%s} x %d problems x domains \
     {%s}, %dms steady (+%dms warmup) per cell, closed loop, seed %d\n\
     recommended domains on this box: %d\n\n%!"
    (String.concat ", "
       (List.map Sync_prims.Prims.cls_name spec.H.classes))
    (List.length spec.H.problems)
    (String.concat ", " (List.map string_of_int spec.H.domains))
    spec.H.duration_ms spec.H.warmup_ms spec.H.seed
    (Domain.recommended_domain_count ());
  let progress (r : H.row) =
    Printf.printf "%-7s %-12s %-18s d=%d  %s%s\n%!"
      (Sync_prims.Prims.cls_name r.H.cls)
      r.H.mechanism r.H.problem r.H.domains
      (H.status_string r.H.status)
      (match r.H.status with
      | H.Supported -> Printf.sprintf "  %12.0f ops/s" r.H.throughput_per_s
      | _ -> "")
  in
  let rows = H.run ~progress spec in
  print_newline ();
  H.pp Format.std_formatter rows;
  Emit.write_file out (H.to_json spec rows);
  Printf.printf "\nwrote %s (%d rows)\n%!" out (List.length rows);
  if not (H.all_ok rows) then begin
    Printf.printf "E25 grid has FAILED cells\n%!";
    exit 1
  end

(* The E23 scalable-lock grids: queue-tier cells (typed unsupported
   rows for absent pairs) plus the epoch scaling rows. The committed
   BENCH_E23.json is this mode's output on the reference box. *)
let e23_grid out =
  let module S = Sync_eval.Scaling_axis in
  let spec = S.default_spec () in
  Printf.printf
    "E23 scalable-lock grids: kinds {%s} x %d problems x %d mechanisms x \
     domains {%s}; epoch rows {%s} at domains {%s}, think %d us; %dms \
     steady (+%dms warmup) per cell, closed loop, seed %d\n\
     recommended domains on this box: %d\n\n%!"
    (String.concat ", " (List.map Sync_prims.Queuelock.kind_name spec.S.kinds))
    (List.length spec.S.problems)
    (List.length spec.S.mechanisms)
    (String.concat ", " (List.map string_of_int spec.S.domains))
    (String.concat ", " spec.S.epoch_mechanisms)
    (String.concat ", " (List.map string_of_int spec.S.epoch_domains))
    spec.S.think_us spec.S.duration_ms spec.S.warmup_ms spec.S.seed
    (Domain.recommended_domain_count ());
  let progress_queue (r : S.queue_row) =
    Printf.printf "%-7s %-12s %-18s d=%d  %s%s\n%!"
      (Sync_prims.Queuelock.kind_name r.S.kind)
      r.S.mechanism r.S.problem r.S.domains
      (S.status_string r.S.status)
      (match r.S.status with
      | S.Supported -> Printf.sprintf "  %12.0f ops/s" r.S.throughput_per_s
      | _ -> "")
  in
  let progress_epoch (r : S.epoch_row) =
    Printf.printf "epoch   %-12s d=%d  %s%s\n%!" r.S.e_mechanism r.S.e_domains
      (S.status_string r.S.e_status)
      (match r.S.e_status with
      | S.Supported -> Printf.sprintf "  %12.0f reads/s" r.S.e_read_per_s
      | _ -> "")
  in
  let t = S.run ~progress_queue ~progress_epoch spec in
  print_newline ();
  S.pp Format.std_formatter t;
  Emit.write_file out (S.to_json spec t);
  Printf.printf "\nwrote %s (%d queue rows, %d epoch rows)\n%!" out
    (List.length t.S.queue) (List.length t.S.epoch);
  if not (S.all_ok t) then begin
    Printf.printf "E23 grids have FAILED cells\n%!";
    exit 1
  end;
  if not (S.epoch_monotonic t) then begin
    Printf.printf
      "E23 epoch read throughput is NOT monotonic in the domain count\n%!";
    exit 1
  end

(* E27 wheel scaling: per-tick cost of the hierarchical timer wheel as
   the pending-alarm population grows 1k -> 1M. Every alarm is
   scheduled past the timed window (random deadlines spread over a
   2^24-tick span), so the measured ticks pay empty-bucket scans and
   level cascades but never a firing — the steady-state cost an alarm
   clock holding N sleepers pays per tick. O(1) amortized tick cost
   means the ns/tick column stays flat as pending grows 1000x; a
   scan-all-alarms implementation would show ~1000x. *)
let wheel_tick_ticks = 65_536

let wheel_tick_populations = [ 1_000; 10_000; 100_000; 1_000_000 ]

let wheel_tick_row pending =
  let module W = Sync_platform.Timerwheel in
  let w = W.create () in
  let rng = Random.State.make [| 0x5ca1ab1e + pending |] in
  let span = 1 lsl 24 in
  let warmup_ticks = 1_024 in
  let now_ns () = Int64.to_int (Monotonic_clock.now ()) in
  let t_add = now_ns () in
  for _ = 1 to pending do
    ignore
      (W.add w
         ~delay:(warmup_ticks + wheel_tick_ticks + 1 + Random.State.int rng span)
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
  let fired = W.advance w ~ticks:wheel_tick_ticks (fun _ () -> ()) in
  let tick_ns =
    float_of_int (now_ns () - t0) /. float_of_int wheel_tick_ticks
  in
  if fired <> 0 then begin
    Printf.eprintf "wheel scaling: %d alarms fired inside the timed window\n"
      fired;
    exit 2
  end;
  if W.pending w <> pending then begin
    Printf.eprintf "wheel scaling: pending %d after window, expected %d\n"
      (W.pending w) pending;
    exit 2
  end;
  (pending, float_of_int add_ns /. float_of_int pending, tick_ns)

(* Max/min per-tick cost across the populations: the flatness number
   the committed document records and the grid run gates on. *)
let wheel_tick_rows () =
  let rows = List.map wheel_tick_row wheel_tick_populations in
  let costs = List.map (fun (_, _, t) -> t) rows in
  let mn = List.fold_left Float.min Float.max_float costs in
  let mx = List.fold_left Float.max 0. costs in
  let ratio = if mn > 0. then mx /. mn else Float.infinity in
  (rows, ratio)

let wheel_tick_json rows ratio =
  Emit.Obj
    [ ("ticks_timed", Emit.Int wheel_tick_ticks);
      ("deadline_span_ticks", Emit.Int (1 lsl 24));
      ( "rows",
        Emit.List
          (List.map
             (fun (pending, add_ns, tick_ns) ->
               Emit.Obj
                 [ ("pending", Emit.Int pending);
                   ("add_ns_per_alarm", Emit.Float add_ns);
                   ("tick_ns", Emit.Float tick_ns) ])
             rows) );
      ("tick_cost_max_over_min", Emit.Float ratio) ]

(* The E27 self-tuning grid: every cell on every static tier and on the
   adaptive tier (tracing on throughout; the adaptive rows run under a
   live controller), plus the wheel scaling rows. The committed
   BENCH_E27.json is this mode's output on the reference box. *)
let e27_grid out =
  let module A = Sync_eval.Adaptive_axis in
  let spec = { (A.default_spec ()) with A.domains = [ 1; 2; 4 ] } in
  Printf.printf
    "E27 self-tuning grid: %d cells x arrivals {%s} x domains {%s} x \
     tiers {%s + adaptive}, %dms steady (+%dms warmup) per cell, open loop \
     at %.0f ops/s, tracing on, seed %d\n\
     recommended domains on this box: %d\n\n%!"
    (List.length spec.A.cells)
    (String.concat ", " (List.map Loadgen.arrival_name spec.A.arrivals))
    (String.concat ", " (List.map string_of_int spec.A.domains))
    (String.concat ", " (List.map Sync_prims.Tier.name spec.A.static_tiers))
    spec.A.duration_ms spec.A.warmup_ms spec.A.rate_per_s spec.A.seed
    (Domain.recommended_domain_count ());
  let progress (r : A.row) =
    Printf.printf "%-16s %-10s %-8s d=%d %-9s %s%s\n%!" r.A.problem
      r.A.mechanism
      (Loadgen.arrival_name r.A.arrival)
      r.A.domains r.A.tier
      (match r.A.status with
      | A.Supported -> Printf.sprintf "%12.0f ops/s" r.A.throughput_per_s
      | A.Failed _ -> "")
      (A.status_string r.A.status |> fun s -> if s = "ok" then "" else "  " ^ s)
  in
  let t = A.run ~progress spec in
  print_newline ();
  A.pp Format.std_formatter t;
  Printf.printf "\nwheel scaling (%d timed ticks per population)\n%!"
    wheel_tick_ticks;
  let wheel_rows, wheel_ratio = wheel_tick_rows () in
  List.iter
    (fun (pending, add_ns, tick_ns) ->
      Printf.printf "  pending %8d  add %7.0f ns/alarm  tick %8.1f ns\n%!"
        pending add_ns tick_ns)
    wheel_rows;
  Printf.printf "  tick cost max/min across populations: %.2fx\n%!"
    wheel_ratio;
  let doc =
    match A.to_json spec t with
    | Emit.Obj fields ->
      Emit.Obj (fields @ [ ("wheel_tick", wheel_tick_json wheel_rows wheel_ratio) ])
    | j -> j
  in
  Emit.write_file out doc;
  Printf.printf "\nwrote %s (%d rows)\n%!" out (List.length t.A.rows);
  let failed = ref false in
  if not (A.all_ok t) then begin
    Printf.printf "E27 grid has FAILED cells\n%!";
    failed := true
  end;
  if not (A.never_worst ~slack:spec.A.never_worst_slack t) then begin
    Printf.printf
      "E27 adaptive tier fell below the worst static tier somewhere\n%!";
    failed := true
  end;
  if A.win_rate ~slack:spec.A.win_slack t < 0.8 then begin
    Printf.printf "E27 adaptive win rate below 0.8\n%!";
    failed := true
  end;
  (* 1000x more alarms for ~flat tick cost; 10x headroom over noise is
     still two orders of magnitude away from a linear scan. *)
  if wheel_ratio > 10.0 then begin
    Printf.printf "E27 wheel tick cost is NOT independent of pending count\n%!";
    failed := true
  end;
  if !failed then exit 1

(* Committed (domains, read_per_s) pairs of the supported epoch rows. *)
let committed_epoch_reads doc =
  let field name r = Emit.member name r in
  let rows = Option.value ~default:Emit.Null (Emit.member "epoch_rows" doc) in
  List.filter_map
    (fun r ->
      match
        ( field "mechanism" r, field "status" r, field "domains" r,
          field "read_per_s" r )
      with
      | ( Some (Emit.Str "epoch"), Some (Emit.Str "supported"), Some d,
          Some rate ) -> (
        match (Emit.number d, Emit.number rate) with
        | Some d, Some rate -> Some (int_of_float d, rate)
        | _ -> None)
      | _ -> None)
    (Emit.to_list rows)
  |> List.sort compare

(* The blocking scaling-sanity gate. Two checks: the committed epoch
   rows must climb strictly with the domain count, and a live 1-vs-4
   domain re-measurement must reproduce the direction (ratio-based, so
   slow CI boxes pass as long as reader entry actually scales). *)
let scaling file =
  let module S = Sync_eval.Scaling_axis in
  let doc = parse_baseline ~what:"E23 baseline" file in
  Printf.printf "scaling sanity vs %s\n%!" file;
  let failed = ref false in
  (match committed_epoch_reads doc with
  | ([] | [ _ ]) ->
    Printf.printf
      "  committed grid has fewer than two supported epoch rows\n%!";
    failed := true
  | (d0, r0) :: rest ->
    List.iter
      (fun (d, r) ->
        Printf.printf "  committed epoch d=%d %12.0f reads/s\n%!" d r)
      ((d0, r0) :: rest);
    let rec check (dp, rp) = function
      | [] -> ()
      | (d, r) :: rest ->
        if r <= rp then begin
          Printf.printf
            "  NOT MONOTONIC: d=%d (%.0f reads/s) <= d=%d (%.0f reads/s)\n%!"
            d r dp rp;
          failed := true
        end;
        check (d, r) rest
    in
    check (d0, r0) rest);
  let dflt = S.default_spec () in
  let spec =
    { dflt with
      S.kinds = [];
      problems = [];
      mechanisms = [];
      epoch_mechanisms = [ "epoch" ];
      epoch_domains = [ 1; 4 ];
      duration_ms = Loadgen.duration_from_env ~default:300 }
  in
  let t = S.run spec in
  let rate d =
    List.find_map
      (fun (r : S.epoch_row) ->
        if r.S.e_domains = d && r.S.e_status = S.Supported then
          Some r.S.e_read_per_s
        else None)
      t.S.epoch
  in
  (match (rate 1, rate 4) with
  | Some r1, Some r4 ->
    Printf.printf
      "  live epoch reads/s  d=1 %12.0f   d=4 %12.0f   ratio %.2fx\n%!" r1 r4
      (r4 /. r1);
    if not (r4 > r1) then begin
      Printf.printf
        "  REGRESSION: 4-domain read throughput not above 1-domain\n%!";
      failed := true
    end
  | _ ->
    List.iter
      (fun (r : S.epoch_row) ->
        Printf.printf "  live epoch d=%d: %s\n%!" r.S.e_domains
          (S.status_string r.S.e_status))
      t.S.epoch;
    failed := true);
  if !failed then begin
    Printf.printf "scaling sanity FAILED\n%!";
    exit 1
  end
  else Printf.printf "scaling sanity ok\n%!"

let () =
  let out = ref "bench-load.json" in
  let sanity_file = ref None in
  let ab_mode = ref false in
  let e22_mode = ref false in
  let e23_mode = ref false in
  let e25_mode = ref false in
  let e27_mode = ref false in
  let baseline_file = ref None in
  let e22_baseline = ref None in
  let e23_baseline = ref None in
  let e25_baseline = ref None in
  let e27_baseline = ref None in
  let scaling_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--out" :: f :: rest ->
      out := f;
      parse rest
    | "--sanity" :: f :: rest ->
      sanity_file := Some f;
      parse rest
    | "--ab" :: rest ->
      ab_mode := true;
      parse rest
    | "--e22" :: rest ->
      e22_mode := true;
      parse rest
    | "--e23" :: rest ->
      e23_mode := true;
      parse rest
    | "--e25" :: rest ->
      e25_mode := true;
      parse rest
    | "--e27" :: rest ->
      e27_mode := true;
      parse rest
    | "--scaling" :: f :: rest ->
      scaling_file := Some f;
      parse rest
    | "--baseline" :: f :: rest ->
      baseline_file := Some f;
      parse rest
    | "--e22-baseline" :: f :: rest ->
      e22_baseline := Some f;
      parse rest
    | "--e23-baseline" :: f :: rest ->
      e23_baseline := Some f;
      parse rest
    | "--e25-baseline" :: f :: rest ->
      e25_baseline := Some f;
      parse rest
    | "--e27-baseline" :: f :: rest ->
      e27_baseline := Some f;
      parse rest
    | [ f ] when not (String.length f > 0 && f.[0] = '-') -> out := f
    | a :: _ ->
      Printf.eprintf
        "usage: bench_load [--out FILE | FILE] [--sanity BASELINE.json \
         [--e22-baseline BENCH_E22.json] [--e23-baseline BENCH_E23.json] \
         [--e25-baseline BENCH_E25.json] [--e27-baseline BENCH_E27.json]] \
         [--scaling BENCH_E23.json] [--ab [--baseline BASELINE.json]] \
         [--e22] [--e23] [--e25] [--e27]\n\
        \  got %S\n"
        a;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!sanity_file, !scaling_file) with
  | Some f, _ ->
    sanity ?e22_file:!e22_baseline ?e23_file:!e23_baseline
      ?e25_file:!e25_baseline ?e27_file:!e27_baseline f
  | None, Some f -> scaling f
  | None, None ->
    if !ab_mode then ab !baseline_file !out
    else if !e22_mode then e22_grid !out
    else if !e23_mode then e23_grid !out
    else if !e25_mode then e25_grid !out
    else if !e27_mode then e27_grid !out
    else grid !out
