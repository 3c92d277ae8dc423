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

type baseline_spec = {
  mechanisms : string list;
  problems : string list;
  domain_counts : int list;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
  params : Target.params;
  tiers : Target.tier list;
}

let default_baseline_spec () =
  { mechanisms = [ "semaphore"; "monitor"; "serializer"; "pathexpr"; "csp";
                   "ccr" ];
    problems = [ "bounded-buffer"; "readers-writers"; "fcfs" ];
    domain_counts = [ 1; 2; 4 ];
    duration_ms = Loadgen.duration_from_env ~default:150;
    warmup_ms = 50;
    seed = 42;
    params = Target.default_params;
    tiers = [ `Default ] }

let baseline_config spec =
  { Loadgen.workers = 1; backend = `Domain; duration_ms = spec.duration_ms;
    warmup_ms = spec.warmup_ms; mode = Loadgen.Closed; seed = spec.seed;
    think_us = 0 }

(* E22 is the E20 grid on both substrate tiers: every (problem,
   mechanism, domains) cell runs once per tier with identical seed and
   windows, so adjacent tier rows measure the substrate. Eventcounts
   ride along: their barging wakeups are exactly the shape the fast
   substrate rewards. *)
let default_e22_spec () =
  let b = default_baseline_spec () in
  { b with
    mechanisms = b.mechanisms @ [ "eventcount" ];
    domain_counts = [ 1; 4 ];
    tiers = [ `Default; `Fast ] }

exception Grid_failure of string

let grid ?progress spec =
  let base = baseline_config spec in
  try
    Ok
      (List.concat_map
         (fun problem ->
           let offered = Target.mechanisms ~problem in
           List.concat_map
             (fun mechanism ->
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
                         (Grid_failure
                            (Printf.sprintf "%s@%s[%s]: %s" problem mechanism
                               (Sync_prims.Tier.name tier) e))
                     | Ok cells -> cells)
                   spec.tiers)
             spec.mechanisms)
         spec.problems)
  with Grid_failure e -> Error e
