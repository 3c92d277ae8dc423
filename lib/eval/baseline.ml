open Sync_metrics
open Sync_workload
module Tier = Sync_prims.Tier
module Prims = Sync_prims.Prims

type probe = {
  tier : Tier.t;
  problem : string;
  mechanism : string;
  domains : int;
  arrival : Loadgen.arrival option;
}

type group = { file : string; probes : probe list }

(* Every cell on every tier, cell-major. *)
let on_tiers ?arrival tiers cells =
  List.concat_map
    (fun (problem, mechanism, domains) ->
      List.map
        (fun tier -> { tier; problem; mechanism; domains; arrival })
        tiers)
    cells

(* Contended restricted-class and queue-lock cells are preemption-bound
   on small CI boxes, so those groups stay single-domain; the native
   (`Prim Native`) row is the unrestricted twin the E25 ratios anchor
   on. *)
let sanity =
  let group file probes = { file; probes } in
  [ group "BENCH_E20.json"
      (on_tiers [ `Default ]
         [ ("fcfs", "semaphore", 1); ("fcfs", "monitor", 1);
           ("bounded-buffer", "ccr", 4) ]);
    group "BENCH_E22.json"
      (on_tiers [ `Default; `Fast ]
         [ ("fcfs", "semaphore", 1); ("bounded-buffer", "ccr", 4) ]);
    group "BENCH_E25.json"
      (on_tiers
         (List.map (fun c -> `Prim c) Prims.[ Native; CAS; FAA; LLSC ])
         [ ("fcfs", "monitor", 1) ]);
    group "BENCH_E23.json"
      (on_tiers
         (List.map (fun k -> `Queue k) Sync_prims.Queuelock.all)
         [ ("bounded-buffer", "monitor", 1) ]);
    group "BENCH_E27.json"
      (on_tiers ~arrival:Loadgen.Poisson
         [ `Default; `Fast; `Adaptive ]
         [ ("bounded-buffer", "semaphore", 2) ]) ]

let coords p =
  [ ("tier", Emit.Str (Tier.name p.tier)); ("problem", Emit.Str p.problem);
    ("mechanism", Emit.Str p.mechanism); ("domains", Emit.Int p.domains) ]
  @
  match p.arrival with
  | Some a -> [ ("arrival", Emit.Str (Loadgen.arrival_name a)) ]
  | None -> []

let id p =
  Printf.sprintf "%s/%s%s d=%d [%s]" p.mechanism p.problem
    (match p.arrival with
    | Some a -> " " ^ Loadgen.arrival_name a
    | None -> "")
    p.domains (Tier.name p.tier)

let measure ~duration_ms p =
  let mode =
    match p.arrival with
    | None -> Loadgen.Closed
    | Some arrival ->
      Loadgen.Open_loop
        { rate_per_s = (Adaptive_axis.default_spec ()).rate_per_s; arrival }
  in
  Cell.measure ~tier:p.tier ~traced:(p.arrival <> None) ~problem:p.problem
    ~mechanism:p.mechanism
    { Loadgen.default_config with
      workers = p.domains; duration_ms; warmup_ms = 50; mode }

type pair = {
  a : string;
  b : string;
  live_ratio : float;
  base_ratio : float;
  drift : float;
  ok : bool;
}

let drift_factor = 5.0

let drift ~factor cells =
  let usable x = Float.is_finite x && x > 0. in
  List.concat
    (List.mapi
       (fun i (a, la, ba) ->
         List.filteri (fun j _ -> j > i) cells
         |> List.map (fun (b, lb, bb) ->
                let live_ratio = la /. lb and base_ratio = ba /. bb in
                let r = live_ratio /. base_ratio in
                let drift = if r < 1.0 then 1.0 /. r else r in
                { a; b; live_ratio; base_ratio; drift;
                  ok = List.for_all usable [ la; lb; ba; bb ] && drift <= factor }))
       cells)
