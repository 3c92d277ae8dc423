open Sync_metrics

type outcome = {
  ok : bool;
  pp : Format.formatter -> unit;
  json : Emit.t;
}

type t = {
  name : string;
  experiment : string;
  title : string;
  run : full:bool -> progress:(string -> unit) -> outcome;
}

(* An outcome is its report plus the named gates it was judged by: [ok]
   iff every gate held, and the report ends with one line per gate. The
   report is the document's table unless the axis prints its own. *)
let judged ?pp gates json =
  { ok = List.for_all snd gates;
    json;
    pp =
      (fun ppf ->
        (match pp with Some pp -> pp ppf | None -> Bench_doc.pp ppf json);
        List.iter
          (fun (what, held) ->
            Format.fprintf ppf "%s: %s@." (if held then "ok" else "FAILED") what)
          gates) }

let robustness =
  { name = "robustness"; experiment = "E19";
    title = "robustness (faults, cancellation, timeouts)";
    run =
      (fun ~full:_ ~progress ->
        let rows =
          Robustness.run
            ~progress:(fun r -> progress (Robustness.progress_line r))
            ()
        in
        judged
          [ ("all runs recovered", Robustness.all_recovered rows) ]
          (Robustness.to_json rows)) }

(* The tier grid behind E20, E22, E23's queue rows and E25. Quick is
   the CI slice, judged by the drift gate against the committed grid;
   full is the grid BENCH_GRID.json holds. *)
let grid =
  { name = "grid"; experiment = "E20/E22/E23/E25";
    title = "tier grid (mechanisms x problems x tiers x domains)";
    run =
      (fun ~full ~progress ->
        let rows =
          Grid.run ~full ~progress:(fun r ->
              progress (Bench_doc.row_line (Cell.row_doc r)))
        in
        let doc = Grid.document ~full rows in
        let drift, drift_gates =
          if full then (ignore, []) else Baseline.gate ~file:Grid.file doc
        in
        judged
          (( "every supported cell ran clean; unsupported cells are typed",
             List.for_all (fun (r : Cell.row) -> Cell.ok r.cell) rows )
          :: drift_gates)
          ~pp:(fun ppf ->
            Bench_doc.pp ppf doc;
            Grid.pp_speedups ppf doc;
            drift ppf)
          doc) }

(* Full adds the tracing A/B row: probes on against off on one cell,
   measured first, in a process no traced load has run in yet. *)
let observability =
  { name = "observability"; experiment = "E21";
    title = "observability (traced contention, wake accounting)";
    run =
      (fun ~full ~progress:_ ->
        let ab = if full then Some (Observability.ab ()) else None in
        let rows = Observability.run () in
        judged
          (( "every mechanism produced a complete trace",
             Observability.all_ok rows )
          ::
          (match ab with
          | Some r ->
            [ ("the A/B cell ran clean", r.status = Bench_doc.Supported) ]
          | None -> []))
          (Observability.to_json ?ab rows)) }

let service =
  { name = "service"; experiment = "E24";
    title = "service tier (deadlines, chaos, crash recovery)";
    run =
      (fun ~full:_ ~progress ->
        let rows =
          Service_axis.run
            ~progress:(fun (r : Service_axis.row) ->
              progress (Printf.sprintf "  [%s] %s" r.scenario r.detail))
            ()
        in
        judged
          [ ("every scenario recovered with zero hung connections",
             Service_axis.all_ok rows) ]
          (Service_axis.to_json rows)) }

(* Quick holds a live 1-vs-4-domain epoch measurement and the
   committed rows to the same rule; full is the committed document,
   epoch rows and timer-wheel rows, with the wheel's gates. *)
let scaling =
  { name = "scaling"; experiment = "E23";
    title = "scalable reader entry (epoch read path) and timer-wheel ticks";
    run =
      (fun ~full ~progress ->
        let module S = Scaling_axis in
        let spec = S.spec ~full in
        let rows =
          S.run spec ~progress:(fun r ->
              progress (Bench_doc.row_line (Cell.row_doc r)))
        in
        let wheel = if full then S.wheel_rows () else [] in
        let doc = S.to_json ~wheel spec rows in
        let extra =
          if full then
            [ ("no wheel alarm fired or went missing in the timed window",
               List.for_all (fun (r : S.wheel_row) -> r.intact) wheel);
              ("wheel tick cost flat across pending counts (max/min <= 10x)",
               S.wheel_ratio wheel <= 10.0) ]
          else
            [ ( "committed BENCH_E23.json epoch read throughput strictly rises \
                with domains",
                match Bench_doc.load "BENCH_E23.json" with
                | Ok c -> S.epoch_monotonic c
                | Error _ -> false ) ]
        in
        judged
          ([ ("every measured cell ran clean",
              List.for_all (fun (r : Cell.row) -> Cell.ok r.cell) rows);
             ("epoch read throughput strictly rises with domains",
              S.epoch_monotonic doc) ]
          @ extra)
          doc) }

let exploration =
  { name = "exploration"; experiment = "E26";
    title = "exploration (bounded DFS vs DPOR)";
    run =
      (fun ~full ~progress ->
        let rows =
          Exploration.run ~full
            ~progress:(fun r ->
              progress (Bench_doc.row_line (Exploration.row_doc r)))
            ()
        in
        judged
          [ ("every ground-truth row agrees", Exploration.sound rows) ]
          (Exploration.to_json rows)) }

let micro =
  { name = "micro"; experiment = "E7-E22";
    title = "micro-benchmarks (the rows no ladder metric or other axis prices)";
    run =
      (fun ~full ~progress ->
        let rows =
          Micro.run ~full ~progress:(fun r -> progress (Bench_doc.row_line r))
        in
        judged
          [ ("every row ran clean",
             List.for_all (fun (r : Bench_doc.row) -> r.status = Bench_doc.Supported) rows) ]
          (Micro.to_json ~full rows)) }

let all =
  [ robustness; grid; observability; service; scaling; exploration; micro ]

let find name = List.find_opt (fun a -> a.name = name) all

let names = List.map (fun a -> a.name) all
