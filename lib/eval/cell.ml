open Sync_metrics
open Sync_workload
module Prims = Sync_prims.Prims
module Tier = Sync_prims.Tier
module Controller = Sync_adaptive.Controller

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
  flips : int;
}

let dead status =
  { status; throughput_per_s = 0.; p50_ns = 0; p99_ns = 0; summary = None;
    flips = 0 }

let unsupported ~feature ~reason = dead (Unsupported { feature; reason })

let failed e = dead (Failed e)

(* The tier restriction is a creation-time property (Target builds the
   whole solution under it), so an inexpressible primitive surfaces as
   {!Prims.Unsupported} from [Target.create] — before any worker runs.
   Anything the self-checking resources throw mid-run is a correctness
   failure of the tier's construction. *)
let measure ?params ?(tier = `Default) ?(traced = false) ~problem ~mechanism
    config =
  let run inst () =
    match tier with
    | `Adaptive ->
      let report, ctrl =
        Controller.with_controller (fun () -> Loadgen.run inst config)
      in
      (report, Controller.flips ctrl)
    | _ -> (Loadgen.run inst config, 0)
  in
  let traced = traced || tier = `Adaptive in
  match Target.create ?params ~tier ~problem ~mechanism () with
  | Error e -> failed e
  | Ok inst -> (
    match
      if traced then fst (Sync_trace.Probe.with_tracing (run inst))
      else run inst ()
    with
    | report, flips ->
      let s = report.Report.summary in
      if s.Summary.total_failures > 0 then
        failed (Printf.sprintf "%d op failures" s.Summary.total_failures)
      else
        let q f = Summary.overall_quantile s f in
        { status = Supported; throughput_per_s = s.Summary.throughput_per_s;
          p50_ns = q (fun o -> o.Summary.p50_ns);
          p99_ns = q (fun o -> o.Summary.p99_ns); summary = Some s; flips }
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
    (match c.status with
    | Supported ->
      [ ("throughput_per_s", c.throughput_per_s);
        ("p50_ns", float_of_int c.p50_ns); ("p99_ns", float_of_int c.p99_ns) ]
      @ extra
    | Unsupported _ | Failed _ -> [])

type row = {
  tier : Tier.t;
  problem : string;
  mechanism : string;
  domains : int;
  cell : t;
}

let grid ?(progress = ignore) ~tiers ~problems ~mechanisms ~domains config =
  let emit r =
    progress r;
    r
  in
  List.concat_map
    (fun tier ->
      List.concat_map
        (fun problem ->
          let offered = Target.mechanisms ~problem in
          List.concat_map
            (fun mechanism ->
              let row domains cell =
                emit { tier; problem; mechanism; domains; cell }
              in
              if not (List.mem mechanism offered) then
                (* An absent pair is a typed reason, never a 0 ops/s row. *)
                [ row 0
                    (unsupported ~feature:"load-target"
                       ~reason:
                         (Printf.sprintf "no %s target for %s" mechanism
                            problem)) ]
              else
                (* Probe support once per tier x pair, so a rejected build
                   is one row rather than one per domain count. *)
                match Target.create ~tier ~problem ~mechanism () with
                | exception Prims.Unsupported { feature; reason; _ } ->
                  [ row 0 (unsupported ~feature ~reason) ]
                | Error e -> [ row 0 (failed e) ]
                | Ok probe ->
                  probe.Target.stop ();
                  List.map
                    (fun d ->
                      row d
                        (measure ~tier ~problem ~mechanism
                           { config with Loadgen.workers = d }))
                    domains)
            (mechanisms problem))
        problems)
    tiers

let row_doc r =
  doc
    [ ("tier", Emit.Str (Tier.name r.tier)); ("problem", Emit.Str r.problem);
      ("mechanism", Emit.Str r.mechanism); ("domains", Emit.Int r.domains) ]
    r.cell
