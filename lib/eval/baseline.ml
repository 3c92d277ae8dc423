open Sync_metrics
module Tier = Sync_prims.Tier
module Prims = Sync_prims.Prims

type probe = {
  tier : Tier.t;
  problem : string;
  mechanism : string;
  domains : int;
}

type group = { name : string; file : string; probes : probe list }

(* Every cell on every tier, cell-major. *)
let on_tiers tiers cells =
  List.concat_map
    (fun (problem, mechanism, domains) ->
      List.map (fun tier -> { tier; problem; mechanism; domains }) tiers)
    cells

(* Contended restricted-class and queue-lock cells are preemption-bound
   on small CI boxes, so those groups stay single-domain; the default
   row is the unrestricted twin the E25 ratios anchor on. *)
let sanity =
  let grid name probes = { name; file = "BENCH_GRID.json"; probes } in
  [ grid "E20"
      (on_tiers [ `Default ]
         [ ("fcfs", "semaphore", 1); ("fcfs", "monitor", 1);
           ("bounded-buffer", "ccr", 4) ]);
    grid "E22"
      (on_tiers [ `Default; `Fast ]
         [ ("fcfs", "semaphore", 1); ("bounded-buffer", "ccr", 4) ]);
    grid "E25"
      (on_tiers
         (`Default :: List.map (fun c -> `Prim c) Prims.[ CAS; FAA; LLSC ])
         [ ("fcfs", "monitor", 1) ]);
    grid "E23"
      (on_tiers
         (List.map (fun k -> `Queue k) Sync_prims.Queuelock.all)
         [ ("bounded-buffer", "monitor", 1) ]) ]

let coords p =
  [ ("tier", Emit.Str (Tier.name p.tier)); ("problem", Emit.Str p.problem);
    ("mechanism", Emit.Str p.mechanism); ("domains", Emit.Int p.domains) ]

let id p =
  Printf.sprintf "%s/%s d=%d [%s]" p.mechanism p.problem p.domains
    (Tier.name p.tier)

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

(* Ratios, not absolute numbers: CI boxes are slower than the reference
   box in ways that cancel out between cells, while a contention
   regression in one mechanism, tier or class does not. A probe missing
   on either side reads 0, so its pairs fail. *)
let gate ~file live =
  match Bench_doc.load file with
  | Error e ->
    ((fun ppf -> Format.fprintf ppf "  %s@." e), [ (file ^ " readable", false) ])
  | Ok committed ->
    let throughput doc p =
      Bench_doc.lookup doc ~coords:(coords p) ~metric:"throughput_per_s"
      |> Option.value ~default:0.
    in
    let judged =
      List.filter_map
        (fun g ->
          if g.file <> file then None
          else
            let cells =
              List.map
                (fun p -> (id p, throughput live p, throughput committed p))
                g.probes
            in
            Some (g, cells, drift ~factor:drift_factor cells))
        sanity
    in
    ( (fun ppf ->
        List.iter
          (fun (g, cells, pairs) ->
            Format.fprintf ppf "drift vs %s (%s)@." file g.name;
            List.iter
              (fun (id, live, base) ->
                Format.fprintf ppf "  %-46s %12.0f ops/s (committed %12.0f)@."
                  id live base)
              cells;
            List.iter
              (fun p ->
                Format.fprintf ppf
                  "  ratio %-46s / %-46s live %.3f committed %.3f drift \
                   %.2fx%s@."
                  p.a p.b p.live_ratio p.base_ratio p.drift
                  (if p.ok then "" else "  REGRESSION"))
              pairs)
          judged),
      List.map
        (fun (g, _, pairs) ->
          ( Printf.sprintf "%s ratios within %.0fx of %s" g.name drift_factor
              file,
            List.for_all (fun p -> p.ok) pairs ))
        judged )
