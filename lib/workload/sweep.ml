open Sync_metrics

type cell = { domains : int; report : Report.t }

let default_domain_counts () =
  List.sort_uniq compare (1 :: 2 :: 4 :: [ Domain.recommended_domain_count () ])

let run ?params ?tier ?(progress = ignore) ~problem ~mechanism ~base
    ~domain_counts () =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
      match Target.create ?params ?tier ~problem ~mechanism () with
      | Error e -> Error e
      | Ok instance ->
        let report =
          Loadgen.run instance { base with Loadgen.workers = n }
        in
        let cell = { domains = n; report } in
        progress cell;
        go (cell :: acc) rest)
  in
  go [] domain_counts

let cell_row c =
  let s = c.report.Report.summary in
  let q f = Summary.overall_quantile s f in
  Emit.Obj
    [ ("mechanism", Emit.Str c.report.Report.mechanism);
      ("problem", Emit.Str c.report.Report.problem);
      ("variant", Emit.Str c.report.Report.variant);
      ("tier", Emit.Str c.report.Report.tier);
      ("domains", Emit.Int c.domains);
      ("throughput_per_s", Emit.Float s.Summary.throughput_per_s);
      ("total_ops", Emit.Int s.Summary.total_ops);
      ("total_failures", Emit.Int s.Summary.total_failures);
      ("p50_ns", Emit.Int (q (fun o -> o.Summary.p50_ns)));
      ("p95_ns", Emit.Int (q (fun o -> o.Summary.p95_ns)));
      ("p99_ns", Emit.Int (q (fun o -> o.Summary.p99_ns)));
      ("p999_ns", Emit.Int (q (fun o -> o.Summary.p999_ns)));
      ("max_ns", Emit.Int (q (fun o -> o.Summary.max_ns)));
      ("per_op",
       match Summary.to_json s with
       | Emit.Obj fields -> List.assoc "per_op" fields
       | _ -> Emit.Null) ]

let sweep_to_json ~problem ~mechanism ~base cells =
  Emit.Obj
    [ ("problem", Emit.Str problem);
      ("mechanism", Emit.Str mechanism);
      ("mode",
       Emit.Str
         (match base.Loadgen.mode with
         | Loadgen.Closed -> "closed"
         | Loadgen.Open_loop _ -> "open"));
      ("duration_ms", Emit.Int base.Loadgen.duration_ms);
      ("warmup_ms", Emit.Int base.Loadgen.warmup_ms);
      ("seed", Emit.Int base.Loadgen.seed);
      ("cells", Emit.List (List.map cell_row cells)) ]

type baseline_spec = {
  mechanisms : string list;
  problems : string list;
  domain_counts : int list;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
  params : Target.params;
}

let default_baseline_spec () =
  { mechanisms = [ "semaphore"; "monitor"; "serializer"; "pathexpr"; "csp";
                   "ccr" ];
    problems = [ "bounded-buffer"; "readers-writers"; "fcfs" ];
    domain_counts = [ 1; 2; 4 ];
    duration_ms = Loadgen.duration_from_env ~default:150;
    warmup_ms = 50;
    seed = 42;
    params = Target.default_params }

let baseline_config spec =
  { Loadgen.workers = 1; backend = `Domain; duration_ms = spec.duration_ms;
    warmup_ms = spec.warmup_ms; mode = Loadgen.Closed; seed = spec.seed;
    think_us = 0 }

exception Baseline_failure of string

let baseline ?progress spec =
  let base = baseline_config spec in
  try
    Ok
      (List.concat_map
         (fun problem ->
           List.concat_map
             (fun mechanism ->
               match
                 run ~params:spec.params ?progress ~problem ~mechanism ~base
                   ~domain_counts:spec.domain_counts ()
               with
               | Error e ->
                 raise
                   (Baseline_failure
                      (Printf.sprintf "%s@%s: %s" problem mechanism e))
               | Ok cells -> cells)
             spec.mechanisms)
         spec.problems)
  with Baseline_failure e -> Error e

(* ------------------------------------------------------------------ *)
(* E22: the default-vs-fast substrate grid. Same machinery as the E20
   baseline, but every (problem, mechanism, domains) cell is run twice
   — once per tier — with identical seed and windows, so the committed
   grid holds side-by-side rows and the ratio between adjacent cells
   is the measured substrate win. *)

let default_e22_spec () =
  let b = default_baseline_spec () in
  (* Eventcounts ride along: they are not part of the six-mechanism E20
     grid, but their barging wakeups are exactly the shape the fast
     substrate rewards, so the E22 grid records them wherever the
     workload engine offers a target. *)
  { b with
    mechanisms = b.mechanisms @ [ "eventcount" ];
    domain_counts = [ 1; 4 ] }

let e22 ?progress ?(tiers = [ `Default; `Fast ]) spec =
  let base = baseline_config spec in
  try
    Ok
      (List.concat_map
         (fun problem ->
           let offered = Target.mechanisms ~problem in
           List.concat_map
             (fun mechanism ->
               (* Unlike the E20 baseline, the E22 grid tolerates a
                  mechanism with partial problem coverage (eventcount has
                  no readers-writers target): absent pairs are skipped,
                  anything else still fails the whole grid. *)
               if not (List.mem mechanism offered) then []
               else
                 List.concat_map
                   (fun tier ->
                     match
                       run ~params:spec.params ~tier ?progress ~problem
                         ~mechanism ~base ~domain_counts:spec.domain_counts ()
                     with
                     | Error e ->
                       raise
                         (Baseline_failure
                            (Printf.sprintf "%s@%s[%s]: %s" problem mechanism
                               (Sync_prims.Tier.name tier) e))
                     | Ok cells -> cells)
                   tiers)
             spec.mechanisms)
         spec.problems)
  with Baseline_failure e -> Error e

let e22_to_json spec cells =
  Emit.Obj
    [ ("experiment", Emit.Str "E22");
      ("description",
       Emit.Str
         "contention-adaptive platform fast paths: the E20 grid run on \
          both substrate tiers (default stdlib-backed vs fast \
          CAS/spin-then-park) with identical seeds and windows; adjacent \
          tier rows of one cell measure the substrate, not the mechanism");
      ("mode", Emit.Str "closed");
      ("backend", Emit.Str "domain");
      ("duration_ms", Emit.Int spec.duration_ms);
      ("warmup_ms", Emit.Int spec.warmup_ms);
      ("seed", Emit.Int spec.seed);
      ("ocaml", Emit.Str Sys.ocaml_version);
      ("recommended_domains", Emit.Int (Domain.recommended_domain_count ()));
      ("tiers", Emit.List [ Emit.Str "default"; Emit.Str "fast" ]);
      ("mechanisms", Emit.List (List.map (fun m -> Emit.Str m) spec.mechanisms));
      ("problems", Emit.List (List.map (fun p -> Emit.Str p) spec.problems));
      ("domain_counts",
       Emit.List (List.map (fun d -> Emit.Int d) spec.domain_counts));
      ("rows", Emit.List (List.map cell_row cells)) ]

let baseline_to_json spec cells =
  Emit.Obj
    [ ("experiment", Emit.Str "E20");
      ("description",
       Emit.Str
         "multicore workload baseline: closed-loop throughput and latency \
          quantiles per mechanism per problem per domain count");
      ("mode", Emit.Str "closed");
      ("backend", Emit.Str "domain");
      ("duration_ms", Emit.Int spec.duration_ms);
      ("warmup_ms", Emit.Int spec.warmup_ms);
      ("seed", Emit.Int spec.seed);
      ("ocaml", Emit.Str Sys.ocaml_version);
      ("recommended_domains", Emit.Int (Domain.recommended_domain_count ()));
      ("mechanisms", Emit.List (List.map (fun m -> Emit.Str m) spec.mechanisms));
      ("problems", Emit.List (List.map (fun p -> Emit.Str p) spec.problems));
      ("domain_counts",
       Emit.List (List.map (fun d -> Emit.Int d) spec.domain_counts));
      ("rows", Emit.List (List.map cell_row cells)) ]
