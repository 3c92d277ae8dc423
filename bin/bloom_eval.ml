(* bloom-eval: command-line front end for the mechanized evaluation.

   Each subcommand regenerates one of the paper's evaluation artifacts
   (see DESIGN.md's experiment index): the expressiveness matrix (E3),
   the constraint-independence analysis (E2/E4), the modularity table
   (E5), the conformance run (E6), the footnote-3 anomaly demo (E1), and
   the nested-monitor-call demonstration (E11). The live axes (E19-E27)
   share one subcommand, [axis NAME], over the Sync_eval.Axis registry. *)

open Cmdliner

let ppf = Format.std_formatter

let list_cmd =
  let doc = "List every registered solution (problem/variant@mechanism)." in
  let run () =
    List.iter
      (fun (e : Sync_eval.Registry.entry) ->
        Format.fprintf ppf "%s@." (Sync_taxonomy.Meta.id e.meta))
      Sync_eval.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let matrix_cmd =
  let doc = "Print the expressive-power matrix (experiment E3)." in
  let run () =
    let card = Sync_eval.Scorecard.build ~run_conformance:false ~axes:[] () in
    Sync_eval.Expressiveness.pp ppf card.matrix;
    match card.discrepancies with
    | [] ->
      Format.fprintf ppf
        "@.The matrix agrees with the paper's Section-5 conclusions.@."
    | ds ->
      List.iter
        (fun (mech, kind, why) ->
          Format.fprintf ppf "DISCREPANCY %s/%s: %s@." mech
            (Sync_taxonomy.Info.to_string kind)
            why)
        ds;
      exit 1
  in
  Cmd.v (Cmd.info "matrix" ~doc) Term.(const run $ const ())

let independence_cmd =
  let doc =
    "Print constraint-independence pairings and the per-mechanism reuse \
     summary (experiments E2/E4)."
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"show every pairing")
  in
  let run verbose =
    let pairings = Sync_eval.Independence.analyze Sync_eval.Registry.all in
    if verbose then Sync_eval.Independence.pp ppf pairings;
    Sync_eval.Independence.pp_summary ppf
      (Sync_eval.Independence.shared_constraint_reuse pairings)
  in
  Cmd.v (Cmd.info "independence" ~doc) Term.(const run $ verbose)

let modularity_cmd =
  let doc = "Print the modularity table (experiment E5)." in
  let run () =
    Sync_eval.Modularity.pp ppf
      (Sync_eval.Modularity.analyze Sync_eval.Registry.all)
  in
  Cmd.v (Cmd.info "modularity" ~doc) Term.(const run $ const ())

let conformance_cmd =
  let doc =
    "Run every solution's machine checks and print the conformance matrix \
     (experiment E6). Exits non-zero on regressions."
  in
  let run () =
    let results = Sync_eval.Conformance.run Sync_eval.Registry.all in
    Sync_eval.Conformance.pp ppf results;
    match Sync_eval.Conformance.regressions results with
    | [] -> Format.fprintf ppf "no regressions@."
    | rs ->
      Format.fprintf ppf "%d regression(s)@." (List.length rs);
      exit 1
  in
  Cmd.v (Cmd.info "conformance" ~doc) Term.(const run $ const ())

(* An axis name from the command line; an unknown one exits 2 listing
   the registry. *)
let find_axis name =
  match Sync_eval.Axis.find name with
  | Some a -> a
  | None ->
    Format.fprintf ppf "unknown axis %S; axes: %s@." name
      (String.concat " " Sync_eval.Axis.names);
    exit 2

let json_arg ~doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let write_json file doc =
  Option.iter
    (fun file ->
      Sync_metrics.Emit.write_file file doc;
      Format.fprintf ppf "wrote %s@." file)
    file

let scorecard_cmd =
  let doc =
    "Print the full scorecard (E3 + E4 + E5 + E6, plus any live axes \
     requested with $(b,--axis)). Exits 1 if the matrix disagrees with the \
     paper, conformance regresses, or an axis fails its gates."
  in
  let fast =
    Arg.(value & flag
         & info [ "fast" ] ~doc:"skip the conformance run (metadata only)")
  in
  let axes =
    Arg.(value & opt_all string []
         & info [ "axis" ] ~docv:"NAME"
             ~doc:("also run this live axis at its quick size (repeatable): "
                  ^ String.concat ", " Sync_eval.Axis.names))
  in
  let json = json_arg ~doc:"also write the whole scorecard as a JSON document" in
  let run fast axes json =
    let axes = List.map find_axis axes in
    let card =
      Sync_eval.Scorecard.build ~run_conformance:(not fast) ~axes ()
    in
    Sync_eval.Scorecard.pp ppf card;
    write_json json (Sync_eval.Scorecard.to_json card);
    if not (Sync_eval.Scorecard.ok card) then exit 1
  in
  Cmd.v (Cmd.info "scorecard" ~doc) Term.(const run $ fast $ axes $ json)

let axis_cmd =
  let doc =
    "Run one live evaluation axis (E19-E27) and print its report. Quick by \
     default (the CI slice); $(b,--full) runs the grid behind the committed \
     BENCH file, and $(b,--json) writes the axis document in that file's \
     shape. Exits 0 when every gate of the axis held, 1 otherwise, 2 on an \
     unknown NAME."
  in
  let axis_name =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME" ~doc:(String.concat " | " Sync_eval.Axis.names))
  in
  let full =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"run the full grid (the committed document's) instead of \
                   the quick slice")
  in
  let json = json_arg ~doc:"also write the axis document" in
  let run name full json =
    let axis = find_axis name in
    let o =
      axis.run ~full ~progress:(fun line -> Format.fprintf ppf "%s@." line)
    in
    Format.fprintf ppf "@.== %s: %s ==@." axis.experiment axis.title;
    o.pp ppf;
    write_json json o.json;
    if not o.ok then exit 1
  in
  Cmd.v (Cmd.info "axis" ~doc) Term.(const run $ axis_name $ full $ json)

let load_cmd =
  let doc =
    "Drive one mechanism x problem pair with the multicore load engine \
     (experiment E20): concurrent workers on real domains (or threads), \
     closed or open loop, latency histograms over the steady-state window. \
     With $(b,--sweep), re-run across increasing domain counts."
  in
  let open Sync_workload in
  let mechanism =
    Arg.(required & opt (some string) None
         & info [ "mechanism" ] ~docv:"MECHANISM"
             ~doc:"semaphore | monitor | serializer | pathexpr | csp | ccr \
                   (eventcount for the buffer problems)")
  in
  let problem =
    Arg.(required & opt (some string) None
         & info [ "problem" ] ~docv:"PROBLEM"
             ~doc:"bounded-buffer | one-slot-buffer | readers-writers | \
                   fcfs | disk-scheduler")
  in
  let domains =
    Arg.(value & opt int 4
         & info [ "domains"; "workers" ] ~docv:"N"
             ~doc:"concurrent workers (each is a domain, or a thread with \
                   $(b,--backend thread))")
  in
  let duration_ms =
    Arg.(value & opt (some int) None
         & info [ "duration-ms" ] ~docv:"MS"
             ~doc:"steady-state window (default: $(b,SYNC_LOAD_MS) or 1000)")
  in
  let warmup_ms =
    Arg.(value & opt int 200 & info [ "warmup-ms" ] ~docv:"MS"
           ~doc:"discarded warmup window")
  in
  let mode_arg =
    Arg.(value & opt string "closed" & info [ "mode" ] ~docv:"MODE"
           ~doc:"closed | open")
  in
  let rate =
    Arg.(value & opt float 50_000. & info [ "rate" ] ~docv:"OPS_PER_S"
           ~doc:"open loop: total offered arrival rate")
  in
  let arrival_arg =
    Arg.(value & opt string "poisson" & info [ "arrival" ] ~docv:"DIST"
           ~doc:"open loop: poisson | uniform | diurnal | bursty")
  in
  let backend_arg =
    Arg.(value & opt string "domain" & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"domain | thread")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"arrival schedules and op-mix draws")
  in
  let capacity =
    Arg.(value & opt int Target.default_params.capacity
         & info [ "capacity" ] ~docv:"N" ~doc:"bounded-buffer slots")
  in
  let work =
    Arg.(value & opt int Target.default_params.work
         & info [ "work" ] ~docv:"N"
             ~doc:"busywork iterations inside each resource body")
  in
  let read_pct =
    Arg.(value & opt int Target.default_params.read_pct
         & info [ "read-pct" ] ~docv:"PCT"
             ~doc:"readers-writers read share, 0..100")
  in
  let tracks =
    Arg.(value & opt int Target.default_params.tracks
         & info [ "tracks" ] ~docv:"N" ~doc:"disk cylinders")
  in
  let hot_pct =
    Arg.(value & opt int Target.default_params.hot_pct
         & info [ "hot-pct" ] ~docv:"PCT"
             ~doc:"disk skew: share of requests aimed at the first tenth \
                   of the tracks")
  in
  let think_us_arg =
    Arg.(value & opt int 0
         & info [ "think-us" ] ~docv:"US"
             ~doc:"closed-loop think time per operation, microseconds, \
                   slept outside the latency window (E23 scaling runs)")
  in
  let sweep =
    Arg.(value & flag
         & info [ "sweep" ]
             ~doc:"run a domain-scaling sweep (1, 2, 4, all recommended \
                   cores) instead of a single run; $(b,--domains) is \
                   ignored")
  in
  let tier_arg =
    Arg.(value & opt string "default"
         & info [ "tier" ] ~docv:"TIER"
             ~doc:
               ("platform substrate, one of "
               ^ String.concat ", "
                   (List.map (fun t -> "$(b," ^ Sync_prims.Tier.name t ^ ")")
                      Sync_prims.Tier.all)
               ^ ". $(b,default) is the stdlib-backed tier; the others are \
                  the contention-adaptive fast paths (E22), the restricted \
                  atomic classes (E25), the local-spin queue locks (E23) and \
                  the hot-swappable sites a feedback controller retiers \
                  live (E27; implies probe tracing)"))
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"write the run (or sweep) as a JSON document")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"print per-op CSV rows instead \
                                             of the human table")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"record structured sync events during the run (E21) and \
                   write them as a Chrome trace_event JSON file \
                   (chrome://tracing, Perfetto); also prints the \
                   contention profile. Not compatible with $(b,--sweep).")
  in
  let fail msg =
    Format.fprintf ppf "%s@." msg;
    exit 2
  in
  let run mechanism problem domains duration_ms warmup_ms mode_arg rate
      arrival_arg backend_arg seed capacity work read_pct tracks hot_pct
      think_us sweep tier_arg json csv trace_out =
    let tier =
      match Sync_prims.Tier.of_string tier_arg with
      | Some t -> t
      | None ->
        fail
          (Printf.sprintf "unknown tier %S (%s)" tier_arg
             (String.concat " | "
                (List.map Sync_prims.Tier.name Sync_prims.Tier.all)))
    in
    let arrival =
      match Loadgen.arrival_of_string arrival_arg with
      | Some a -> a
      | None ->
        fail
          (Printf.sprintf
             "unknown arrival %S (poisson | uniform | diurnal | bursty)"
             arrival_arg)
    in
    let mode =
      match mode_arg with
      | "closed" -> Loadgen.Closed
      | "open" -> Loadgen.Open_loop { rate_per_s = rate; arrival }
      | s -> fail (Printf.sprintf "unknown mode %S (closed | open)" s)
    in
    let backend =
      match backend_arg with
      | "domain" -> `Domain
      | "thread" -> `Thread
      | s -> fail (Printf.sprintf "unknown backend %S (domain | thread)" s)
    in
    let duration_ms =
      match duration_ms with
      | Some ms -> ms
      | None -> Loadgen.duration_from_env ~default:1000
    in
    let params =
      { Target.capacity; work; read_pct; tracks; hot_pct }
    in
    let base =
      { Loadgen.workers = domains; backend; duration_ms; warmup_ms; mode;
        seed; think_us }
    in
    if sweep && trace_out <> None then
      fail "--trace records a single run; drop --sweep";
    (match tier with
    | `Adaptive when sweep ->
      fail "--tier adaptive drives a live controller; drop --sweep"
    | _ -> ());
    if sweep then begin
      let domain_counts = Sweep.default_domain_counts () in
      let progress (c : Sweep.cell) =
        Format.fprintf ppf "%a@." Report.pp c.Sweep.report
      in
      match
        Sweep.run ~params ~tier ~progress ~problem ~mechanism ~base
          ~domain_counts ()
      with
      | Error e -> fail e
      | Ok cells ->
        (match json with
        | None -> ()
        | Some file ->
          Sync_metrics.Emit.write_file file
            (Sync_eval.Perf.sweep_doc ~problem ~mechanism ~base cells);
          Format.fprintf ppf "wrote %s@." file)
    end
    else
      match Target.create ~params ~tier ~problem ~mechanism () with
      | Error e -> fail e
      | Ok instance ->
        let flips = ref 0 in
        let decisions = ref [] in
        let samples = ref 0 in
        let go () =
          let exec () =
            try Loadgen.run instance base
            with Invalid_argument m -> fail ("invalid config: " ^ m)
          in
          match tier with
          | `Adaptive ->
            let r, ctrl = Sync_adaptive.Controller.with_controller exec in
            flips := Sync_adaptive.Controller.flips ctrl;
            decisions := Sync_adaptive.Controller.decisions ctrl;
            samples := Sync_adaptive.Controller.samples ctrl;
            r
          | _ -> exec ()
        in
        (* The adaptive controller reads the live probe rings, so the
           run is traced even without --trace. *)
        let traced =
          trace_out <> None
          || match tier with `Adaptive -> true | _ -> false
        in
        let report, events =
          if traced then Sync_trace.Probe.with_tracing go else (go (), [])
        in
        (match tier with
        | `Adaptive ->
          Format.fprintf ppf
            "adaptive controller: %d tier flip(s) over %d sample(s)@." !flips
            !samples;
          List.iter
            (fun (d : Sync_adaptive.Controller.decision) ->
              Format.fprintf ppf
                "  flip %-24s -> %-8s (wait %.0f ns, wait/hold %.2f)@."
                d.Sync_adaptive.Controller.d_site
                (Sync_platform.Mutex.tier_name
                   d.Sync_adaptive.Controller.d_tier)
                d.Sync_adaptive.Controller.d_wait_ns
                d.Sync_adaptive.Controller.d_ratio)
            !decisions
        | _ -> ());
        if csv then begin
          print_endline Report.csv_header;
          List.iter print_endline (Report.csv_rows report)
        end
        else Format.fprintf ppf "%a@." Report.pp report;
        (match trace_out with
        | None -> ()
        | Some file ->
          let label = Printf.sprintf "%s/%s" mechanism problem in
          let profile =
            Sync_trace.Profile.of_events
              ~dropped:(Sync_trace.Probe.dropped ()) events
          in
          Format.fprintf ppf "@.%a@." Sync_trace.Profile.pp profile;
          Sync_trace.Chrome.write_file file [ (label, events) ];
          Format.fprintf ppf "wrote %s (%d events)@." file
            (List.length events));
        (match json with
        | None -> ()
        | Some file ->
          Report.write_json file report;
          Format.fprintf ppf "wrote %s@." file)
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(const run $ mechanism $ problem $ domains $ duration_ms $ warmup_ms
          $ mode_arg $ rate $ arrival_arg $ backend_arg $ seed $ capacity
          $ work $ read_pct $ tracks $ hot_pct $ think_us_arg $ sweep
          $ tier_arg $ json $ csv $ trace_out)

let anomaly_cmd =
  let doc =
    "Reproduce footnote 3 (experiment E1): in the Figure 1 path solution a \
     second writer overtakes a waiting reader; the monitor, serializer, \
     baton-semaphore and CSP readers-priority solutions hand the resource \
     to the reader in the identical staging."
  in
  let run () =
    let show name m =
      let outcome = Sync_problems.Rw_harness.scenario_writer_handoff m in
      Format.fprintf ppf "%-34s -> %s@." name
        (Sync_problems.Rw_harness.outcome_to_string outcome)
    in
    Format.fprintf ppf
      "Staging: W1 mid-write; W2 then R queue up; W1 releases.@.";
    Format.fprintf ppf
      "Correct readers-priority hands over to R (reader-first).@.@.";
    show "pathexpr fig1 (paper Figure 1)" (module Sync_problems.Rw_path.Fig1);
    show "monitor readers-priority" (module Sync_problems.Rw_mon.Readers_prio);
    show "serializer readers-priority"
      (module Sync_problems.Rw_ser.Readers_prio);
    show "semaphore baton readers-priority"
      (module Sync_problems.Rw_sem.Readers_prio_baton);
    show "semaphore Courtois problem 1"
      (module Sync_problems.Rw_sem.Readers_prio);
    show "csp readers-priority" (module Sync_problems.Rw_csp.Readers_prio)
  in
  Cmd.v (Cmd.info "anomaly" ~doc) Term.(const run $ const ())

let trace_cmd =
  let doc =
    "Two modes. With $(b,--out FILE): run a short traced contended load on \
     every registered mechanism (experiment E21) and write the combined \
     structured event trace as Chrome trace_event JSON — load it in \
     chrome://tracing or Perfetto; one process lane per mechanism. \
     Without $(b,--out): print the annotated event trace of the \
     footnote-3 staging (E1) for a readers-writers solution (pids 200/201 \
     are the writers, pid 1 the reader)."
  in
  let which =
    Arg.(value & pos 0 string "fig1" & info [] ~docv:"SOLUTION"
           ~doc:"E1 mode: fig1 | monitor | serializer | baton | courtois | \
                 csp | ccr")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"E21 mode: write the all-mechanism Chrome trace here")
  in
  let duration_ms =
    Arg.(value & opt int 25 & info [ "duration-ms" ] ~docv:"MS"
           ~doc:"E21 mode: traced steady-state window per mechanism")
  in
  let timeline =
    Arg.(value & flag
         & info [ "timeline" ]
             ~doc:"E21 mode: also print each mechanism's compact text \
                   timeline (first 40 events)")
  in
  let run_traced out duration_ms timeline =
    let traced =
      Sync_eval.Observability.run_traced ~duration_ms ()
    in
    let rows = List.map (fun t -> t.Sync_eval.Observability.row) traced in
    Sync_metrics.Bench_doc.pp ppf (Sync_eval.Observability.to_json rows);
    List.iter
      (fun (t : Sync_eval.Observability.traced) ->
        Format.fprintf ppf "@.-- %s --@.%a"
          t.Sync_eval.Observability.row.Sync_eval.Observability.mechanism
          Sync_trace.Profile.pp t.Sync_eval.Observability.profile;
        if timeline then begin
          let rec take n = function
            | x :: rest when n > 0 -> x :: take (n - 1) rest
            | _ -> []
          in
          Sync_trace.Timeline.pp ppf (take 40 t.Sync_eval.Observability.events)
        end)
      traced;
    let groups =
      List.map
        (fun (t : Sync_eval.Observability.traced) ->
          ( t.Sync_eval.Observability.row.Sync_eval.Observability.mechanism,
            t.Sync_eval.Observability.events ))
        traced
    in
    Sync_trace.Chrome.write_file out groups;
    Format.fprintf ppf "@.wrote %s (%d mechanisms)@." out (List.length groups);
    if not (Sync_eval.Observability.all_ok rows) then exit 1
  in
  let run which out duration_ms timeline =
    match out with
    | Some out -> run_traced out duration_ms timeline
    | None ->
    let m =
      match which with
      | "fig1" -> Some (module Sync_problems.Rw_path.Fig1 : Sync_problems.Rw_intf.S)
      | "monitor" -> Some (module Sync_problems.Rw_mon.Readers_prio)
      | "serializer" -> Some (module Sync_problems.Rw_ser.Readers_prio)
      | "baton" -> Some (module Sync_problems.Rw_sem.Readers_prio_baton)
      | "courtois" -> Some (module Sync_problems.Rw_sem.Readers_prio)
      | "csp" -> Some (module Sync_problems.Rw_csp.Readers_prio)
      | "ccr" -> Some (module Sync_problems.Rw_ccr.Readers_prio)
      | _ -> None
    in
    match m with
    | None ->
      Format.fprintf ppf "unknown solution %S@." which;
      exit 2
    | Some m ->
      let outcome, events =
        Sync_problems.Staged.run ~seed:0
          (Sync_problems.Rw_harness.det_scenario_writer_handoff m)
      in
      List.iter
        (fun e -> Format.fprintf ppf "%a@." Sync_platform.Trace.pp_event e)
        events;
      Format.fprintf ppf "outcome: %s@."
        (Sync_problems.Rw_harness.outcome_to_string outcome)
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ which $ out $ duration_ms $ timeline)

let run_cmd =
  let doc = "Run one solution's conformance checks." in
  let problem =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROBLEM")
  in
  let mechanism =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"MECHANISM")
  in
  let variant =
    Arg.(value & opt string "default" & info [ "variant" ] ~docv:"VARIANT")
  in
  let run problem mechanism variant =
    match Sync_eval.Registry.find ~problem ~variant ~mechanism with
    | None ->
      Format.fprintf ppf "unknown solution %s/%s@%s (try 'list')@." problem
        variant mechanism;
      exit 2
    | Some e -> (
      match e.verify () with
      | Ok () -> Format.fprintf ppf "pass@."
      | Error msg ->
        Format.fprintf ppf "FAIL: %s@." msg;
        if e.expect_conformant then exit 1
        else Format.fprintf ppf "(expected: documented anomaly)@.")
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ problem $ mechanism $ variant)

let paths_cmd =
  let doc = "Parse a path-expression spec and echo its AST rendering." in
  let src = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC") in
  let run src =
    match Sync_pathexpr.Parser.parse src with
    | spec ->
      Format.fprintf ppf "%s@.operations: %s@."
        (Sync_pathexpr.Ast.to_string spec)
        (String.concat ", " (Sync_pathexpr.Ast.ops spec))
    | exception Sync_pathexpr.Parser.Syntax_error msg ->
      Format.fprintf ppf "syntax error: %s@." msg;
      exit 1
  in
  Cmd.v (Cmd.info "paths" ~doc) Term.(const run $ src)

let nested_cmd =
  let doc =
    "Demonstrate the nested-monitor-call problem (experiment E11): the \
     naive structure deadlocks, the paper's Section-2 structure does not."
  in
  let run () =
    let open Sync_monitor in
    let open Sync_platform in
    let demo ~structure access_fn =
      let outer = Monitor.create () in
      let inner = Monitor.create () in
      let cond = Monitor.Cond.create inner in
      let l = Latch.create 2 in
      let consumer =
        Process.spawn ~backend:`Thread (fun () ->
            access_fn outer (fun () ->
                Monitor.with_monitor inner (fun () -> Monitor.Cond.wait cond));
            Latch.arrive l)
      in
      ignore consumer;
      Thread.delay 0.1;
      let producer =
        Process.spawn ~backend:`Thread (fun () ->
            access_fn outer (fun () ->
                Monitor.with_monitor inner (fun () ->
                    Monitor.Cond.signal cond));
            Latch.arrive l)
      in
      ignore producer;
      let finished = Latch.wait_timeout l ~timeout_ns:500_000_000L in
      Format.fprintf ppf "%-28s -> %s@." structure
        (if finished then "completes" else "DEADLOCK (detected by timeout)")
    in
    demo ~structure:"resource inside monitor" (fun m f ->
        Protected.access_inside m f);
    demo ~structure:"paper's Section-2 structure" (fun m f ->
        Protected.access m ~before:(fun () -> ()) ~after:(fun () -> ()) f)
  in
  Cmd.v (Cmd.info "nested" ~doc) Term.(const run $ const ())

let explore_cmd =
  let doc =
    "Explore deterministic schedules of a scenario (E18): run the real \
     mechanism implementation under controlled interleavings with a seeded \
     random walk, PCT priority fuzzing, bounded exhaustive DFS, or DPOR \
     (one schedule per dependency-equivalence class; a complete run \
     certifies every class, E17/E26). Failing schedules print their seed \
     and schedule string and shrink to a minimal counterexample; with no \
     SCENARIO, lists the catalog."
  in
  let open Sync_detsched in
  let scenario_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCENARIO"
           ~doc:"Scenario name from the catalog (try with no argument).")
  in
  let strategy =
    Arg.(value & opt string "random" & info [ "strategy" ] ~docv:"STRATEGY"
           ~doc:"random | pct | dfs | dpor")
  in
  let dpor_flag =
    Arg.(value & flag & info [ "dpor" ]
           ~doc:"Shorthand for --strategy dpor (dynamic partial-order \
                 reduction: complete coverage of the dependency-equivalence \
                 classes within the schedule budget).")
  in
  let workers =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N"
           ~doc:"Domains for dpor: partitions the top-level backtrack \
                 frontier. Keep 1 for scenarios using the process-global \
                 fault registry (the storm-* entries).")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Base seed for random/pct.")
  in
  let runs =
    Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N"
           ~doc:"Seeds to try for random/pct.")
  in
  let max_schedules =
    Arg.(value & opt int 10_000 & info [ "max-schedules" ] ~docv:"N"
           ~doc:"Schedule budget for dfs and dpor. The default is too \
                 small to complete the largest catalog entries: re-certify \
                 with e.g. $(b,explore rw-mon --dpor --max-schedules \
                 2000000).")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"SCHEDULE"
             ~doc:"Replay one recorded schedule string (as printed by a \
                   failing run) under event tracing and print the compact \
                   timeline of what every task did, instead of exploring.")
  in
  let list_catalog () =
    List.iter
      (fun (e : Scenarios.entry) ->
        Format.fprintf ppf "%-16s %s  [%s]@." e.scen.Detsched.name
          e.scen.Detsched.descr
          (match e.expect with
          | Scenarios.Pass -> "expected: pass"
          | Scenarios.Fail -> "expected: failing schedules exist"
          | Scenarios.Always_fail -> "expected: every schedule fails"))
      Scenarios.all
  in
  let report_failure sc seed v =
    Format.fprintf ppf "FAIL seed=%d: %s@." seed (Detsched.verdict_message v);
    Format.fprintf ppf "  schedule: %s@."
      (Detsched.Schedule.to_string v.Detsched.outcome.Detsched.schedule);
    let s = Detsched.shrink sc v.Detsched.outcome.Detsched.schedule in
    Format.fprintf ppf "  shrunk (%d replays): %s@." s.Detsched.attempts
      (Detsched.Schedule.to_string s.Detsched.shrunk);
    Format.fprintf ppf "  %s@." s.Detsched.message
  in
  let replay_traced sc sched_str =
    let sched =
      try Detsched.Schedule.of_string sched_str
      with _ ->
        Format.fprintf ppf "unparseable schedule %S@." sched_str;
        exit 2
    in
    let v, events =
      Sync_trace.Probe.with_tracing (fun () -> Detsched.replay sc sched)
    in
    Sync_trace.Timeline.pp ppf events;
    if Detsched.verdict_ok v then Format.fprintf ppf "verdict: ok@."
    else begin
      Format.fprintf ppf "verdict: %s@." (Detsched.verdict_message v);
      exit 1
    end
  in
  let run name strategy dpor_flag workers seed runs max_schedules replay =
    let strategy = if dpor_flag then "dpor" else strategy in
    match name with
    | None -> list_catalog ()
    | Some name -> (
      match Scenarios.find name with
      | None ->
        Format.fprintf ppf "unknown scenario %S; catalog:@." name;
        list_catalog ();
        exit 2
      | Some e -> (
        let sc = e.Scenarios.scen in
        match replay with
        | Some sched_str -> replay_traced sc sched_str
        | None -> (
        match strategy with
        | "random" | "pct" -> (
          let strat = if strategy = "pct" then `Pct else `Random in
          let r =
            Detsched.sample ~runs ~base_seed:seed ~strategy:strat sc
          in
          match r.Detsched.failure with
          | None ->
            Format.fprintf ppf "%s: %d %s runs ok (seeds %d..%d)@." name
              r.Detsched.runs strategy seed (seed + runs - 1)
          | Some (bad_seed, v) ->
            report_failure sc bad_seed v;
            exit 1)
        | "dfs" -> (
          let r = Detsched.explore_dfs ~max_schedules sc in
          Format.fprintf ppf
            "%s: %d schedules explored (%s), deepest %d decisions@." name
            r.Detsched.explored
            (if r.Detsched.complete then "complete" else "budget hit")
            r.Detsched.deepest;
          match r.Detsched.failures with
          | [] -> Format.fprintf ppf "no failing schedule@."
          | fs ->
            Format.fprintf ppf "%d failing schedule(s), first:@."
              (List.length fs);
            let sched, msg = List.hd fs in
            Format.fprintf ppf "  %s@.  %s@."
              (Detsched.Schedule.to_string sched)
              msg;
            exit 1)
        | "dpor" -> (
          let r = Detsched.explore_dpor ~max_schedules ~workers sc in
          Format.fprintf ppf
            "%s: %d schedules explored (%s), deepest %d decisions, %d \
             races, %d redundant, %d workers, %.0f sched/s@."
            name r.Detsched.explored
            (if r.Detsched.complete then "complete: every equivalence class"
             else "budget hit")
            r.Detsched.deepest r.Detsched.races r.Detsched.redundant
            r.Detsched.workers r.Detsched.per_sec;
          match r.Detsched.failures with
          | [] -> Format.fprintf ppf "no failing schedule@."
          | fs ->
            Format.fprintf ppf "%d failing schedule(s), first:@."
              r.Detsched.failed;
            let sched, msg = List.hd fs in
            Format.fprintf ppf "  %s@.  %s@."
              (Detsched.Schedule.to_string sched)
              msg;
            exit 1)
        | s ->
          Format.fprintf ppf
            "unknown strategy %S (random | pct | dfs | dpor)@." s;
          exit 2)))
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(const run $ scenario_arg $ strategy $ dpor_flag $ workers $ seed
          $ runs $ max_schedules $ replay_arg)

let () =
  let doc =
    "Mechanized evaluation of synchronization mechanisms (Bloom, SOSP'79)"
  in
  let info = Cmd.info "bloom-eval" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; matrix_cmd; independence_cmd; modularity_cmd;
            conformance_cmd; scorecard_cmd; axis_cmd; anomaly_cmd; run_cmd;
            paths_cmd; trace_cmd; nested_cmd; explore_cmd;
            load_cmd ]))
