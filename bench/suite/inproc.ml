(* The in-process workloads: each mechanism's solution driven through
   [Target] by the closed-loop [Loadgen], mechanisms interleaved round
   by round in a seed-shuffled order, so a stall on a shared box costs
   one (mechanism, round) sample rather than a whole mechanism.

   Other tenants of a shared box slow whole stretches of a run, never
   speed it up, so each mechanism's number is its upper-quartile round:
   the rate the code reaches when the box leaves it alone, which still
   moves with the code because every round runs the same code. The
   end-to-end number is the geometric mean over the gated mechanisms,
   so every mechanism weighs the same however fast it is. *)

open Sync_workload
module Probe = Sync_trace.Probe
module Summary = Sync_metrics.Summary
module Emit = Sync_metrics.Emit
module Prng = Sync_platform.Prng

type t = {
  name : string;
  problem : string;
  workers : int;  (** worker domains *)
  probed : bool;  (** probes recording throughout, as in traced production use *)
  gated : string list;  (** mechanisms folded into the end-to-end numbers *)
  ungated : string list;  (** measured and recorded per round, not gated *)
}

let five = [ "semaphore"; "monitor"; "serializer"; "pathexpr"; "ccr" ]

let bb_uncontended =
  { name = "bb-uncontended"; problem = "bounded-buffer"; workers = 1;
    probed = false; gated = five; ungated = [] }

let bb_probed = { bb_uncontended with name = "bb-probed"; probed = true }

(* Monitor and semaphore flip between a fast and a slow mode from run to
   run under this load, so they are recorded but kept out of the gate. *)
let rw_contended =
  { name = "rw-contended"; problem = "readers-writers"; workers = 2;
    probed = false; gated = [ "serializer"; "pathexpr"; "ccr" ];
    ungated = [ "monitor"; "semaphore" ] }

let mechanisms w = w.gated @ w.ungated

let build w mechanism =
  match Target.create ~problem:w.problem ~mechanism () with
  | Ok i -> i
  | Error e -> failwith e

(* A [bench.<op>] span around every call into the target. *)
let with_bench_spans (inst : Target.instance) =
  let wrap (op : Target.op) =
    let site = "bench." ^ op.Target.name in
    { op with
      Target.run =
        (fun ~rng ~pid ->
          let t0 = Probe.now () in
          op.Target.run ~rng ~pid;
          Probe.span Probe.Op ~site ~since:t0 ~arg:pid) }
  in
  { inst with Target.ops = Array.map wrap inst.Target.ops }

type sample = {
  build_ns : int;  (** building the round's target *)
  ops_per_s : float;
  cpu_us_per_op : float;
  ops : int;
  failures : int;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
}

(* One closed-loop window of [mechanism] on a freshly built target. *)
let round ?traced w ~mechanism ~seed ~warmup_ms ~duration_ms =
  let b0 = Box.now_ns () in
  let inst = build w mechanism in
  let build_ns = Box.now_ns () - b0 in
  let inst = if traced = None then inst else with_bench_spans inst in
  let probes = w.probed || traced <> None in
  if probes then begin
    Probe.reset ();
    Probe.enable ()
  end;
  let cfg =
    { Loadgen.workers = w.workers; backend = `Domain; duration_ms; warmup_ms;
      mode = Loadgen.Closed; seed; think_us = 0 }
  in
  let report, cpu_ns =
    Box.sample_window ~warmup_ms ~duration_ms Box.self_cpu_ns (fun () ->
        Loadgen.run inst cfg)
  in
  if probes then begin
    Probe.disable ();
    match traced with
    | Some acc -> Traced.add_rings acc
    | None -> Probe.reset ()
  end;
  let s = report.Report.summary in
  let q f = Summary.overall_quantile s f in
  { build_ns;
    ops_per_s = s.Summary.throughput_per_s;
    cpu_us_per_op = float_of_int cpu_ns /. 1e3 /. float_of_int (max 1 s.total_ops);
    ops = s.total_ops;
    failures = s.total_failures;
    p50_ns = q (fun o -> o.Summary.p50_ns);
    p99_ns = q (fun o -> o.Summary.p99_ns);
    p999_ns = q (fun o -> o.Summary.p999_ns) }

type windows = { rounds : int; warmup_ms : int; duration_ms : int }

let windows w ~ms ~quick =
  if quick then { rounds = 1; warmup_ms = 20; duration_ms = 100 }
  else
    let rounds = 8 in
    { rounds; warmup_ms = 50;
      duration_ms = max 50 (ms / (rounds * List.length (mechanisms w))) }

let run ?traced w ~seed ~ms ~quick =
  let win = windows w ~ms ~quick in
  (* One unmeasured round first: a process's first worker domains start
     slowly, and a round in which one worker runs alone is not this
     workload. *)
  if not quick then
    List.iter
      (fun mechanism ->
        ignore
          (round w ~mechanism ~seed ~warmup_ms:win.warmup_ms
             ~duration_ms:win.warmup_ms))
      (mechanisms w);
  (* Per round, (mechanism, sample) in the order they ran. *)
  let rounds =
    List.init win.rounds (fun r ->
        let order = Array.of_list (mechanisms w) in
        Prng.shuffle (Prng.make (Int64.of_int ((seed * 1000) + r))) order;
        List.map
          (fun mechanism ->
            ( mechanism,
              round ?traced w ~mechanism ~seed:((seed * 100) + r)
                ~warmup_ms:win.warmup_ms ~duration_ms:win.duration_ms ))
          (Array.to_list order))
  in
  let of_mech m = List.map (List.assoc m) rounds in
  (* Set-up is building every mechanism's target, timed where each round
     builds it (samples spread over the run are steadier than a burst of
     back-to-back builds); lower quartile, as interference only adds. *)
  let setup =
    fst
      (Stat.quartiles
         (List.map
            (fun rd ->
              float_of_int (List.fold_left (fun a (_, s) -> a + s.build_ns) 0 rd) /. 1e9)
            rounds))
  in
  let best pick m f = pick (Stat.quartiles (List.map f (of_mech m))) in
  let gate pick f = Stat.geomean (List.map (fun m -> best pick m f) w.gated) in
  let all = List.concat_map of_mech (mechanisms w) in
  let failures = List.fold_left (fun a s -> a + s.failures) 0 all in
  let ops = List.fold_left (fun a s -> a + s.ops) 0 all in
  let checks =
    List.concat_map
      (fun m ->
        List.filter (fun s -> s.ops = 0) (of_mech m)
        |> List.map (fun _ -> m ^ ": a round completed no operation"))
      (mechanisms w)
  in
  let floats f m = Emit.List (List.map (fun s -> Emit.Float (f s)) (of_mech m)) in
  let ints f m = Emit.List (List.map (fun s -> Emit.Int (f s)) (of_mech m)) in
  let mechanism_detail =
    Emit.Obj
      (List.map
         (fun m ->
           ( m,
             Emit.Obj
               [ ("gated", Emit.Bool (List.mem m w.gated));
                 ("build_us", floats (fun s -> float_of_int s.build_ns /. 1e3) m);
                 ("ops_per_s", floats (fun s -> s.ops_per_s) m);
                 ("cpu_us_per_op", floats (fun s -> s.cpu_us_per_op) m);
                 ("ops", ints (fun s -> s.ops) m);
                 ("p50_ns", ints (fun s -> s.p50_ns) m);
                 ("p99_ns", ints (fun s -> s.p99_ns) m);
                 ("p999_ns", ints (fun s -> s.p999_ns) m) ] ))
         (mechanisms w))
  in
  let detail =
    Emit.Obj
      [ ("cpu_us_per_op", Emit.Float (gate fst (fun s -> s.cpu_us_per_op)));
        ("peak_rss_mb", Emit.Float (Box.peak_rss_mb ~pid:"self"));
        ("mechanisms", mechanism_detail) ]
  in
  let windows =
    Emit.Obj
      [ ("rounds", Emit.Int win.rounds); ("warmup_ms", Emit.Int win.warmup_ms);
        ("duration_ms", Emit.Int win.duration_ms);
        ("workers", Emit.Int w.workers) ]
  in
  Doc.row ~workload:w.name ~attempted:(ops + failures) ~failed:failures ~checks
    ~windows ~detail
    ~metrics:
      [ Doc.metric "ops_per_s" "1/s" (gate snd (fun s -> s.ops_per_s));
        Doc.metric "setup_s" "s" setup ]
