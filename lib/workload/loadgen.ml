open Sync_platform
open Sync_metrics
module Probe = Sync_trace.Probe

(* The op loop's clock is the probe clock, read whether or not tracing
   is on: with probes recording, an op's latency stamps and its
   [workload.op] span then share reads with the lock events inside it,
   and the span nests them on one time line. It is an untagged int from
   a noalloc C call, so a read allocates nothing. *)
let[@inline] now_ns () = Sync_trace.Probe_clock.now_ns ()

(* E27 adds the two shapes a self-tuning controller has to survive:
   [Diurnal] modulates a Poisson process with a slow sinusoid (rate
   swings between ~0.1x and ~1.9x of nominal over [diurnal_period_ms]),
   so the best tier changes during the run; [Bursty] is a two-state
   mixture — occasional long gaps, dense bursts between them — with the
   same nominal rate but a far higher variance, the classic trigger for
   spin-vs-park mistuning. *)
type arrival = Poisson | Uniform_spaced | Diurnal | Bursty

let arrival_name = function
  | Poisson -> "poisson"
  | Uniform_spaced -> "uniform"
  | Diurnal -> "diurnal"
  | Bursty -> "bursty"

let arrival_of_string = function
  | "poisson" -> Some Poisson
  | "uniform" -> Some Uniform_spaced
  | "diurnal" -> Some Diurnal
  | "bursty" -> Some Bursty
  | _ -> None

let diurnal_period_ms = 100

let diurnal_amplitude = 0.9

(* Bursty mixture: a 1-in-10 draw opens a gap 6.4x the nominal mean;
   the rest arrive at 0.4x. Expectation 0.1*6.4 + 0.9*0.4 = 1.0 keeps
   the aggregate rate honest while the variance explodes. *)
let burst_gap_p = 0.1

let burst_gap_scale = 6.4

let burst_dense_scale = 0.4

type mode = Closed | Open_loop of { rate_per_s : float; arrival : arrival }

type config = {
  workers : int;
  backend : [ `Thread | `Domain ];
  duration_ms : int;
  warmup_ms : int;
  mode : mode;
  seed : int;
  think_us : int;
}

let default_config =
  { workers = 4; backend = `Domain; duration_ms = 1000; warmup_ms = 200;
    mode = Closed; seed = 42; think_us = 0 }

let duration_from_env ~default =
  match Sys.getenv_opt "SYNC_LOAD_MS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some ms when ms > 0 -> ms
    | _ -> default)
  | None -> default

(* Phases. Workers look the phase up after each completed operation and
   file the sample accordingly; the coordinator owns the transitions. *)
let warmup = 0

let steady = 1

let finished = 2

let validate cfg =
  if cfg.workers < 1 then invalid_arg "Loadgen.run: workers must be >= 1";
  if cfg.duration_ms < 1 then invalid_arg "Loadgen.run: duration must be >= 1ms";
  if cfg.warmup_ms < 0 then invalid_arg "Loadgen.run: negative warmup";
  match cfg.mode with
  | Open_loop { rate_per_s; _ } when rate_per_s <= 0.0 ->
    invalid_arg "Loadgen.run: open-loop rate must be positive"
  | _ -> ()

let validate_target (target : Target.instance) =
  (match target.Target.selection with
  | Target.Weighted ws when Array.fold_left ( + ) 0 ws <= 0 ->
    invalid_arg "Loadgen.run: weighted selection with no weight"
  | _ -> ());
  if Array.length target.Target.ops = 0 then
    invalid_arg "Loadgen.run: target with no ops"

let run (target : Target.instance) cfg =
  validate cfg;
  validate_target target;
  let ops = target.Target.ops in
  let nops = Array.length ops in
  let op_names = Array.map (fun o -> o.Target.name) ops in
  let phase = Atomic.make warmup in
  (* recorders.(w).(warmup|steady): strictly per-worker single-writer. *)
  let recorders =
    Array.init cfg.workers (fun _ ->
        [| Recorder.create ~ops:op_names (); Recorder.create ~ops:op_names () |])
  in
  let base_rng = Prng.make (Int64.of_int cfg.seed) in
  let rngs = Array.init cfg.workers (fun _ -> Prng.split base_rng) in
  (* Open loop: each worker carries 1/workers of the aggregate rate. *)
  let mean_ia_ns =
    match cfg.mode with
    | Closed -> 0.0
    | Open_loop { rate_per_s; _ } ->
      1e9 *. float_of_int cfg.workers /. rate_per_s
  in
  let worker w () =
    let rng = rngs.(w) in
    let recs = recorders.(w) in
    let start_ns = now_ns () in
    let next_arrival = ref start_ns in
    (* Exponential inter-arrival: -mean * ln(1 - U), U in [0,1). *)
    let exp_draw mean =
      let u = Prng.float rng 1.0 in
      -.mean *. log (1.0 -. u)
    in
    let interarrival () =
      match cfg.mode with
      | Closed -> 0
      | Open_loop { arrival = Uniform_spaced; _ } -> int_of_float mean_ia_ns
      | Open_loop { arrival = Poisson; _ } ->
        int_of_float (exp_draw mean_ia_ns)
      | Open_loop { arrival = Diurnal; _ } ->
        (* Sinusoid-modulated Poisson: the instantaneous rate follows
           1 + A*sin(2*pi*t/period), evaluated at the intended arrival
           time so the shape is schedule-driven, not execution-driven. *)
        let t_ns = float_of_int (!next_arrival - start_ns) in
        let phase =
          2.0 *. Float.pi *. t_ns /. (float_of_int diurnal_period_ms *. 1e6)
        in
        let factor = 1.0 +. (diurnal_amplitude *. sin phase) in
        int_of_float (exp_draw (mean_ia_ns /. Float.max 0.05 factor))
      | Open_loop { arrival = Bursty; _ } ->
        let scale =
          if Prng.float rng 1.0 < burst_gap_p then burst_gap_scale
          else burst_dense_scale
        in
        int_of_float (exp_draw (mean_ia_ns *. scale))
    in
    let rec wait_until ns =
      let now = now_ns () in
      if now >= ns || Atomic.get phase >= finished then ()
      else begin
        if ns - now > 2_000_000 then
          Thread.delay 0.001
        else Thread.yield ();
        wait_until ns
      end
    in
    let run_one i =
      (* Closed-loop think time: sleep outside the latency window, so
         each worker issues roughly 1/(think+service) ops/s and adding
         workers raises aggregate throughput until the resource
         saturates — the classic interactive-client model, and the knob
         that lets a scaling experiment mean something even when the
         host serializes runnable threads. *)
      if cfg.think_us > 0 then Thread.delay (float_of_int cfg.think_us /. 1e6);
      let start =
        match cfg.mode with
        | Closed -> now_ns ()
        | Open_loop _ ->
          let s = !next_arrival in
          next_arrival := s + interarrival ();
          wait_until s;
          (* Latency counts from the intended arrival: falling behind
             schedule surfaces as queueing delay, not omitted samples. *)
          s
      in
      (* The Op span shares the latency record's clock reads: its end
         always, its start in closed loop (open loop's latency starts at
         the scheduled arrival, before the op really began). *)
      let t0 =
        match cfg.mode with
        | Closed -> if Probe.enabled () then start else 0
        | Open_loop _ -> Probe.now ()
      in
      if t0 <> 0 then Probe.set_op op_names.(i);
      match ops.(i).Target.run ~rng ~pid:w with
      | () ->
        let stop = now_ns () in
        Probe.record Op ~site:"workload.op" ~t0 ~dur:(stop - t0) ~arg:i;
        let ph = Atomic.get phase in
        if ph <= steady then Recorder.record recs.(ph) ~op:i ~ns:(stop - start)
      | exception _ ->
        let ph = Atomic.get phase in
        if ph <= steady then Recorder.record_failure recs.(ph) ~op:i
    in
    let pick_weighted =
      match target.Target.selection with
      | Target.Cycle -> fun () -> 0
      | Target.Weighted ws ->
        let total = Array.fold_left ( + ) 0 ws in
        fun () ->
          let r = Prng.int rng total in
          let rec go i acc =
            let acc = acc + ws.(i) in
            if r < acc then i else go (i + 1) acc
          in
          go 0 0
    in
    while Atomic.get phase < finished do
      match target.Target.selection with
      | Target.Cycle ->
        (* The whole cycle runs before the stop check: per-worker op
           balance is the liveness invariant for put/get problems. *)
        for i = 0 to nops - 1 do
          run_one i
        done
      | Target.Weighted _ -> run_one (pick_weighted ())
    done
  in
  let handles =
    List.init cfg.workers (fun w ->
        Process.spawn ~name:(Printf.sprintf "load-%d" w)
          ~backend:(cfg.backend :> Process.backend)
          (worker w))
  in
  if cfg.warmup_ms > 0 then Thread.delay (float_of_int cfg.warmup_ms /. 1e3);
  Atomic.set phase steady;
  let t0 = Clock.now_ns () in
  Thread.delay (float_of_int cfg.duration_ms /. 1e3);
  Atomic.set phase finished;
  let t1 = Clock.now_ns () in
  List.iter Process.join handles;
  target.Target.stop ();
  let merged =
    Recorder.merge (Array.to_list (Array.map (fun r -> r.(steady)) recorders))
  in
  let summary = Summary.of_recorder ~elapsed_ns:(Int64.sub t1 t0) merged in
  let meta = target.Target.meta in
  { Report.problem = meta.Sync_taxonomy.Meta.problem;
    variant = meta.Sync_taxonomy.Meta.variant;
    mechanism = meta.Sync_taxonomy.Meta.mechanism;
    tier = target.Target.tier;
    workers = cfg.workers;
    backend = (match cfg.backend with `Thread -> "thread" | `Domain -> "domain");
    mode = (match cfg.mode with Closed -> "closed" | Open_loop _ -> "open");
    rate_per_s =
      (match cfg.mode with
      | Closed -> None
      | Open_loop { rate_per_s; _ } -> Some rate_per_s);
    arrival =
      (match cfg.mode with
      | Closed -> None
      | Open_loop { arrival; _ } -> Some (arrival_name arrival));
    duration_ms = cfg.duration_ms;
    warmup_ms = cfg.warmup_ms;
    seed = cfg.seed;
    summary }
