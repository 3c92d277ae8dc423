(* E23: the epoch rows. The readers-writers database on the
   {!Sync_problems.Rw_epoch} read-mostly path at increasing domain
   counts, with closed-loop think time so the comparison measures
   reader-entry scalability rather than how many times one core can run
   the same critical section; a serializing reference mechanism rides
   along in the full run. *)

open Sync_metrics
open Sync_workload

type spec = {
  mechanisms : string list;
  domains : int list;
  think_us : int;
  read_pct : int;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
}

(* The rows carry a think time because on a host with few cores a
   think-free closed loop saturates at one worker and the domain axis
   measures nothing. *)
let spec ~full =
  { mechanisms = (if full then [ "epoch"; "semaphore" ] else [ "epoch" ]);
    domains = (if full then [ 1; 2; 4 ] else [ 1; 4 ]);
    think_us = 500;
    read_pct = 95;
    duration_ms = Loadgen.duration_from_env ~default:150;
    warmup_ms = 50;
    seed = 42 }

let run ?progress spec =
  Cell.grid ?progress
    ~params:{ Target.default_params with read_pct = spec.read_pct }
    ~targets:
      (List.map (fun m -> (`Default, "readers-writers", m)) spec.mechanisms)
    ~domains:spec.domains
    { Loadgen.default_config with
      duration_ms = spec.duration_ms; warmup_ms = spec.warmup_ms;
      seed = spec.seed; think_us = spec.think_us }

let read_per_s (c : Cell.t) =
  match c.summary with
  | Some s -> (
    match List.find_opt (fun o -> o.Summary.op = "read") s.Summary.per_op with
    | Some o ->
      float_of_int o.Summary.count *. 1e9 /. Int64.to_float s.Summary.elapsed_ns
    | None -> 0.)
  | None -> 0.

(* Only the ["epoch"] rows are held to the claim — reference mechanisms
   ride along for the side-by-side, serializing as they please. *)
let epoch_monotonic doc =
  let rates =
    Bench_doc.select doc ~coords:[ ("mechanism", Emit.Str "epoch") ]
    |> List.filter_map (fun r ->
           match
             (Option.bind (Bench_doc.coord "domains" r) Emit.number,
              Bench_doc.metric "read_per_s" r)
           with
           | Some d, Some rate -> Some (d, rate)
           | _ -> None)
    |> List.sort compare
  in
  let rec climbs = function
    | (_, a) :: ((_, b) :: _ as rest) -> b > a && climbs rest
    | _ -> true
  in
  List.length rates >= 2 && climbs rates

let to_json spec rows =
  let doc summary =
    Bench_doc.document ~experiment:"E23"
      ~description:
        "scalable reader entry: the epoch read-mostly readers-writers path \
         (and a serializing reference) at increasing domain counts with \
         closed-loop think time; E23's queue-lock rows are the tier grid's \
         E23 selection"
      ~params:
        [ ("mode", Emit.Str "closed"); ("backend", Emit.Str "domain");
          ("duration_ms", Emit.Int spec.duration_ms);
          ("warmup_ms", Emit.Int spec.warmup_ms); ("seed", Emit.Int spec.seed);
          ("think_us", Emit.Int spec.think_us);
          ("read_pct", Emit.Int spec.read_pct);
          ("mechanisms", Emit.strings spec.mechanisms);
          ("domain_counts", Emit.ints spec.domains) ]
      ~summary
      (List.map
         (fun (r : Cell.row) ->
           Cell.row_doc ~extra:[ ("read_per_s", read_per_s r.cell) ] r)
         rows)
  in
  doc [ ("epoch_monotonic", Emit.Bool (epoch_monotonic (doc []))) ]
