open Sync_metrics
open Sync_workload
module Tier = Sync_prims.Tier

let file = "BENCH_GRID.json"

let queue = List.map (fun k -> `Queue k) Sync_prims.Queuelock.all

let prims = List.map (fun c -> `Prim c) Sync_prims.Prims.all

let tiers = [ `Default; `Fast ] @ queue @ prims

(* The queue-lock tiers keep E23's cut: one mechanism per construct
   family, plus the two partial-coverage pairs that exercise the
   typed-unsupported path (eventcount has no readers-writers target;
   epoch has nothing but). *)
let targets =
  List.concat_map
    (fun tier ->
      let problems, mechanisms =
        match tier with
        | `Queue _ ->
          ( [ "bounded-buffer"; "readers-writers" ],
            fun _ -> [ "semaphore"; "monitor"; "ccr"; "eventcount"; "epoch" ] )
        | _ ->
          ( [ "bounded-buffer"; "readers-writers"; "fcfs" ],
            fun problem ->
              List.filter (( <> ) "epoch") (Target.mechanisms ~problem) )
      in
      List.concat_map
        (fun p -> List.map (fun m -> (tier, p, m)) (mechanisms p))
        problems)
    tiers

let domains ~full = if full then [ 1; 2; 4 ] else [ 1 ]

let selections =
  [ ("E20", [ `Default ]); ("E22", [ `Default; `Fast ]); ("E23", queue);
    ("E25", `Default :: prims) ]

let select name doc =
  List.concat_map
    (fun t -> Bench_doc.select doc ~coords:[ ("tier", Emit.Str (Tier.name t)) ])
    (List.assoc name selections)

let config () =
  let duration_ms = Loadgen.duration_from_env ~default:150 in
  { Loadgen.default_config with
    duration_ms; warmup_ms = Loadgen.warmup_for duration_ms; seed = 42 }

(* The quick slice is every target at one domain, since d>1 spin cells
   on a small shared box measure preemption, not the primitive; the
   drift gate's multi-domain probes are measured beside it. *)
let run ~full ~progress =
  let config = config () and ds = domains ~full in
  let probes =
    List.concat_map
      (fun (g : Baseline.group) -> if g.file = file then g.probes else [])
      Baseline.sanity
    |> List.filter_map (fun (p : Baseline.probe) ->
           if full || List.mem p.domains ds then None
           else Some (p.domains, (p.tier, p.problem, p.mechanism)))
    |> List.sort_uniq compare
  in
  Cell.grid ~progress ~targets ~domains:ds config
  @ List.concat_map
      (fun (d, t) -> Cell.grid ~progress ~targets:[ t ] ~domains:[ d ] config)
      probes

let document ~full rows =
  let c = config () in
  let names ts = Emit.strings (List.map Tier.name ts) in
  Bench_doc.document ~experiment:"E20/E22/E23/E25"
    ~description:
      "tier grid: every mechanism x problem load target on every platform \
       tier (default, fast, MCS/CLH/ticket queue locks, restricted atomic \
       classes), closed loop with identical windows and seed; E20, E22, \
       E23's queue rows and E25 are selections of its rows by tier; pairs \
       a tier cannot build or the engine does not offer are typed \
       unsupported rows"
    ~params:
      [ ("mode", Emit.Str "closed"); ("backend", Emit.Str "domain");
        ("duration_ms", Emit.Int c.duration_ms);
        ("warmup_ms", Emit.Int c.warmup_ms); ("seed", Emit.Int c.seed);
        ("tiers", names tiers); ("domain_counts", Emit.ints (domains ~full));
        ("selections",
         Emit.Obj (List.map (fun (n, ts) -> (n, names ts)) selections)) ]
    (List.map Cell.row_doc rows)

(* The default -> fast speedup per cell: the number the E22 acceptance
   gate (>= 1.3x on a contended 4-domain cell) reads. *)
let pp_speedups ppf doc =
  let rows = select "E22" doc in
  let coord k r =
    match Bench_doc.coord k r with
    | Some (Emit.Str s) -> s
    | Some v -> Emit.to_string ~pretty:false v
    | None -> "-"
  in
  let throughput = Bench_doc.metric "throughput_per_s" in
  List.iter
    (fun r ->
      let twin d =
        coord "tier" d = "default"
        && List.for_all
             (fun k -> coord k d = coord k r)
             [ "problem"; "mechanism"; "domains" ]
      in
      match (Option.bind (List.find_opt twin rows) throughput, throughput r) with
      | Some base, Some fast when coord "tier" r = "fast" && base > 0. ->
        Format.fprintf ppf "%-12s %-18s d=%s fast/default %.2fx@."
          (coord "mechanism" r) (coord "problem" r) (coord "domains" r)
          (fast /. base)
      | _ -> ())
    rows
