open Sync_metrics
open Sync_workload
module Prims = Sync_prims.Prims
module Tier = Sync_prims.Tier

type status = Bench_doc.status =
  | Supported
  | Unsupported of { feature : string; reason : string }
  | Failed of string

type t = {
  status : status;
  throughput_per_s : float;
  p50_ns : int;
  p99_ns : int;
  summary : Summary.t option;
}

let dead status =
  { status; throughput_per_s = 0.; p50_ns = 0; p99_ns = 0; summary = None }

let unsupported ~feature ~reason = dead (Unsupported { feature; reason })

let failed e = dead (Failed e)

(* The tier restriction is a creation-time property (Target builds the
   whole solution under it), so an inexpressible primitive surfaces as
   {!Prims.Unsupported} from [Target.create] — before any worker runs.
   Anything the self-checking resources throw mid-run is a correctness
   failure of the tier's construction. *)
let measure ?params ?(tier = `Default) ?(traced = false) ~problem ~mechanism
    config =
  let run inst () = Loadgen.run inst config in
  match Target.create ?params ~tier ~problem ~mechanism () with
  | Error e -> failed e
  | Ok inst -> (
    match
      if traced then fst (Sync_trace.Probe.with_tracing (run inst))
      else run inst ()
    with
    | report ->
      let s = report.Report.summary in
      if s.Summary.total_failures > 0 then
        failed (Printf.sprintf "%d op failures" s.Summary.total_failures)
      else
        let q f = Summary.overall_quantile s f in
        { status = Supported; throughput_per_s = s.Summary.throughput_per_s;
          p50_ns = q (fun o -> o.Summary.p50_ns);
          p99_ns = q (fun o -> o.Summary.p99_ns); summary = Some s }
    | exception Prims.Unsupported { feature; reason; _ } ->
      unsupported ~feature ~reason
    | exception e -> failed (Printexc.to_string e))
  | exception Prims.Unsupported { feature; reason; _ } ->
    unsupported ~feature ~reason
  | exception e -> failed (Printexc.to_string e)

let ok c = match c.status with Failed _ -> false | _ -> true

let status_string = Bench_doc.status_string

let doc ?(extra = []) coords c =
  Bench_doc.row ~status:c.status coords
    (match c.summary with
    | Some s ->
      let q f = float_of_int (Summary.overall_quantile s f) in
      [ ("throughput_per_s", s.Summary.throughput_per_s);
        ("total_ops", float_of_int s.Summary.total_ops);
        ("total_failures", float_of_int s.Summary.total_failures);
        ("p50_ns", q (fun o -> o.Summary.p50_ns));
        ("p95_ns", q (fun o -> o.Summary.p95_ns));
        ("p99_ns", q (fun o -> o.Summary.p99_ns));
        ("p999_ns", q (fun o -> o.Summary.p999_ns));
        ("max_ns", q (fun o -> o.Summary.max_ns)) ]
      @ Bench_doc.per_op s @ extra
    | None -> [])

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

type row = {
  tier : Tier.t;
  problem : string;
  mechanism : string;
  domains : int;
  cell : t;
}

let grid ?params ?(progress = ignore) ~targets ~domains config =
  List.concat_map
    (fun (tier, problem, mechanism) ->
      let row domains cell =
        let r = { tier; problem; mechanism; domains; cell } in
        progress r;
        r
      in
      if not (List.mem mechanism (Target.mechanisms ~problem)) then
        (* An absent pair is a typed reason, never a 0 ops/s row. *)
        [ row 0
            (unsupported ~feature:"load-target"
               ~reason:
                 (Printf.sprintf "no %s target for %s" mechanism problem)) ]
      else
        (* Probe support once per target, so a rejected build is one row
           rather than one per domain count. *)
        match Target.create ?params ~tier ~problem ~mechanism () with
        | exception Prims.Unsupported { feature; reason; _ } ->
          [ row 0 (unsupported ~feature ~reason) ]
        | Error e -> [ row 0 (failed e) ]
        | Ok probe ->
          probe.Target.stop ();
          List.map
            (fun d ->
              row d
                (measure ?params ~tier ~problem ~mechanism
                   { config with Loadgen.workers = d }))
            domains)
    targets

let row_doc ?extra r =
  doc ?extra
    ([ ("tier", Emit.Str (Tier.name r.tier)); ("problem", Emit.Str r.problem);
       ("mechanism", Emit.Str r.mechanism); ("domains", Emit.Int r.domains) ]
    @
    if r.domains > Domain.recommended_domain_count () then
      [ ("oversubscribed", Emit.Bool true) ]
    else [])
    r.cell
