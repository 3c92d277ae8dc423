(* bench_suite: the outside-in benchmark. See README.md here.

     bench_suite run     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
     bench_suite traced  [--workload W] [--seed N] [--seconds S] [--out FILE]
     bench_suite compare A.json... -- B.json...
     bench_suite smoke

   [run] measures the end-to-end metrics with tracing off; [traced]
   (or [run --trace 1]) measures the per-layer metrics. With one
   workload the last stdout line is a JSON summary of the run. *)

module Emit = Sync_metrics.Emit

type workload = {
  name : string;
  run : traced:Traced.t option -> seed:int -> ms:int -> quick:bool -> Doc.row;
}

let inproc (w : Inproc.t) =
  { name = w.name; run = (fun ~traced ~seed ~ms ~quick -> Inproc.run ?traced w ~seed ~ms ~quick) }

let serve (w : Serve.t) =
  { name = w.name; run = (fun ~traced ~seed ~ms ~quick -> Serve.run ?traced w ~seed ~ms ~quick) }

let workloads =
  [ inproc Inproc.bb_uncontended; inproc Inproc.rw_contended;
    inproc Inproc.bb_probed; serve Serve.serve_kv; serve Serve.serve_mix;
    { name = "dpor-certify";
      run = (fun ~traced ~seed ~ms ~quick -> Dpor.run ?traced ~seed ~ms ~quick ()) } ]

(* CPU per operation, which every workload keeps in its row detail. *)
let cpu_us_per_op (r : Doc.row) =
  Option.value (Option.bind (Emit.member "cpu_us_per_op" r.detail) Emit.number)
    ~default:nan

(* The per-layer row: the whole cost ladder, then the workload itself
   twice at half the window, untraced and traced; the difference in
   CPU per operation between the two is the tracing overhead. *)
let traced_row w ~seed ~ms ~quick =
  let ladder, tally = Ladder.run (if quick then Ladder.quick else Ladder.full) ~seed in
  let plain = w.run ~traced:None ~seed ~ms:(ms / 2) ~quick in
  let acc = Traced.create () in
  let traced = w.run ~traced:(Some acc) ~seed ~ms:(ms / 2) ~quick in
  let chrome = Printf.sprintf "%s/trace-%s.json" Serve.out_dir w.name in
  Serve.ensure_out_dir ();
  Traced.write_chrome acc ~label:w.name chrome;
  Doc.row ~workload:w.name
    ~attempted:(tally.attempted + plain.attempted + traced.attempted)
    ~failed:(tally.failed + plain.failed + traced.failed)
    ~checks:(tally.checks @ plain.checks @ traced.checks)
    ~windows:plain.windows
    ~detail:
      (Emit.Obj
         [ ("untraced", Doc.row_json plain); ("traced", Doc.row_json traced);
           ("chrome_trace", Emit.Str chrome) ])
    ~metrics:
      (ladder @ Traced.metrics acc
      @ [ Doc.metric "workload.cpu_us_per_op" "us" (cpu_us_per_op plain);
          Doc.metric "trace.overhead_pct" "%"
            (100.0 *. ((cpu_us_per_op traced /. cpu_us_per_op plain) -. 1.0)) ])

let header ~command ~seed ~seconds rows =
  Box.header ~command ~seed ~seconds
    ~windows:(Emit.Obj (List.map (fun (r : Doc.row) -> (r.workload, r.windows)) rows))

(* -- smoke ---------------------------------------------------------- *)

(* Every workload with short rounds, then one quick traced pass: the
   metric names and units must be exactly those BENCHMARK.json
   declares, every run correct, and [compare] of the output against
   itself clean. *)
let smoke () =
  let spec = Spec.read () in
  let problems = ref [] in
  let problem p = problems := p :: !problems in
  let names (ds : Spec.decl list) = List.sort compare (List.map (fun (d : Spec.decl) -> (d.name, d.unit_)) ds) in
  let emitted (r : Doc.row) = List.sort compare (List.map (fun (m : Doc.metric) -> (m.name, m.unit_)) r.metrics) in
  let check_names kind decls (r : Doc.row) =
    let want = names decls and got = emitted r in
    List.iter
      (fun (n, u) -> if not (List.mem (n, u) got) then problem (Printf.sprintf "%s: %s metric %s [%s] missing" r.workload kind n u))
      want;
    List.iter
      (fun (n, u) -> if not (List.mem (n, u) want) then problem (Printf.sprintf "%s: %s metric %s [%s] not declared" r.workload kind n u))
      got
  in
  if List.map (fun w -> w.name) workloads <> spec.workloads then
    problem "BENCHMARK.json workloads differ from the suite's";
  let rows = List.map (fun w -> w.run ~traced:None ~seed:42 ~ms:500 ~quick:true) workloads in
  let traced = traced_row (List.hd workloads) ~seed:42 ~ms:500 ~quick:true in
  List.iter Doc.print_table (rows @ [ traced ]);
  List.iter (check_names "end-to-end" spec.end_to_end) rows;
  check_names "per-layer" spec.per_layer traced;
  List.iter
    (fun (r : Doc.row) -> if not r.correct then problem (r.workload ^ ": incorrect"))
    (rows @ [ traced ]);
  let out = Serve.out_dir ^ "/smoke.json" in
  Doc.write out ~header:(header ~command:"smoke" ~seed:42 ~seconds:0 rows) rows;
  if not (Compare.run spec ~a:[ out ] ~b:[ out ]) then problem "compare of a run against itself regressed";
  match !problems with
  | [] ->
    print_endline "smoke: ok";
    true
  | ps ->
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
    false

(* -- command line --------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench_suite run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    \       bench_suite traced [--workload W] [--seed N] [--seconds S] [--out FILE]\n\
    \       bench_suite compare A.json... -- B.json...\n\
    \       bench_suite smoke";
  exit 2

type opts = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
  out : string option;
}

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest -> parse { o with workload = Some w } rest
  | "--seed" :: n :: rest -> parse { o with seed = int_of_string n } rest
  | "--seconds" :: s :: rest -> parse { o with seconds = int_of_string s } rest
  | "--trace" :: t :: rest -> parse { o with trace = t = "1" } rest
  | "--out" :: f :: rest -> parse { o with out = Some f } rest
  | _ -> usage ()

let run_cmd command o =
  let ws =
    match o.workload with
    | None -> workloads
    | Some n -> (
      match List.find_opt (fun w -> w.name = n) workloads with
      | Some w -> [ w ]
      | None ->
        prerr_endline
          ("unknown workload " ^ n ^ " (try: "
          ^ String.concat ", " (List.map (fun w -> w.name) workloads)
          ^ ")");
        exit 2)
  in
  let ms = o.seconds * 1000 in
  let rows =
    List.map
      (fun w ->
        if o.trace then traced_row w ~seed:o.seed ~ms ~quick:false
        else w.run ~traced:None ~seed:o.seed ~ms ~quick:false)
      ws
  in
  let header = header ~command ~seed:o.seed ~seconds:o.seconds rows in
  print_endline ("# box " ^ Emit.to_string ~pretty:false header);
  List.iter Doc.print_table rows;
  Option.iter (fun f -> Doc.write f ~header rows) o.out;
  (match rows with [ r ] -> print_endline (Doc.result_line r) | _ -> ());
  exit (if List.for_all (fun (r : Doc.row) -> r.correct) rows then 0 else 1)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let defaults = { workload = None; seed = 42; seconds = 10; trace = false; out = None } in
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd "run" (parse defaults args)
  | "traced" :: args -> run_cmd "traced" (parse { defaults with trace = true } args)
  | "compare" :: args -> (
    let rec split acc = function
      | "--" :: b -> (List.rev acc, b)
      | x :: rest -> split (x :: acc) rest
      | [] -> usage ()
    in
    match split [] args with
    | [], _ | _, [] -> usage ()
    | a, b -> exit (if Compare.run (Spec.read ()) ~a ~b then 0 else 1))
  | [ "smoke" ] -> exit (if smoke () then 0 else 1)
  | _ -> usage ()
