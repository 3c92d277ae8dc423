(* The service workloads: the real bloom_serve daemon, spawned by the
   bench, driven open loop by [Serve_driver] over a Unix socket. Daemon
   CPU comes from /proc/PID/task/*/schedstat around each steady window;
   the daemon's own exit report gives its drain verdict and counters. *)

module Driver = Sync_workload.Serve_driver
module Report = Sync_workload.Report
module Client = Sync_serve.Client
module Wire = Sync_serve.Wire
module Summary = Sync_metrics.Summary
module Emit = Sync_metrics.Emit

let out_dir = ".bench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* The daemon built next to this executable (same dune build dir). *)
let exe () =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat dir "../../bin/bloom_serve.exe"

type daemon = { pid : int; sock : string; out : string; up_s : float }

let accepts sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ok =
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> true
    | exception Unix.Unix_error _ -> false
  in
  Unix.close fd;
  ok

(* Daemons spawned and not yet reaped; killed if the bench exits early,
   so no run leaves a daemon behind. *)
let live = ref []

(* Reap [pid], killing it if it outlives [timeout_s]. *)
let reap ?(timeout_s = 15.0) pid =
  live := List.filter (( <> ) pid) !live;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Thread.delay 0.005;
      poll ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      `Killed
    | _, Unix.WEXITED c -> `Exited c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> `Signaled s
  in
  poll ()

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap ~timeout_s:5.0 pid))
        !live)

let counter = ref 0

(* Spawn the daemon and time it until its socket accepts, polling every
   millisecond. The daemon's stdout (its exit report) goes to a file.
   A daemon that never accepts is killed and fails the run. *)
let spawn ?trace () =
  ensure_out_dir ();
  incr counter;
  (* Relative, so the path stays under the Unix socket length limit
     wherever the checkout lives. *)
  let sock = Printf.sprintf "%s/d%d-%d.sock" out_dir (Unix.getpid ()) !counter in
  let out = sock ^ ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [ "serve"; "--unix"; sock ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let exe = exe () in
  let t0 = Box.now_ns () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd Unix.stderr in
  live := pid :: !live;
  Unix.close fd;
  let rec poll () =
    if accepts sock then { pid; sock; out; up_s = float_of_int (Box.now_ns () - t0) /. 1e9 }
    else if Box.now_ns () - t0 > 10_000_000_000 then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid);
      failwith (exe ^ " never accepted on its socket")
    end
    else begin
      Thread.delay 0.001;
      poll ()
    end
  in
  poll ()

type stopped = { drain_clean : bool; stats : Emit.t }

(* SIGTERM, wait for the drain, read the exit report. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status = reap d.pid in
  let stats =
    match Emit.parse_file d.out with
    | doc -> Option.value (Emit.member "stats" doc) ~default:Emit.Null
    | exception _ -> Emit.Null
  in
  (try Sys.remove d.out with Sys_error _ -> ());
  { drain_clean = status = `Exited 0; stats }

let stat_int stats k =
  match Option.bind (Emit.member k stats) Emit.number with
  | Some f -> int_of_float f
  | None -> 0

let sockaddr d = Unix.ADDR_UNIX d.sock

(* Two connections at 1000 req/s: half the daemon's per-problem token
   bucket (2000 tokens/s), so admission never sets the result. *)
let connections = 2

let rate = 1000.0

let driver_cfg problem ~seed ~warmup_ms ~duration_ms =
  { Driver.default_config with
    connections;
    rate_per_s = rate;
    arrival = Sync_workload.Loadgen.Poisson;
    duration_ms;
    warmup_ms;
    seed;
    problem;
    deadline_ns = 50_000_000L;
    churn_every = 64 }

type sample = {
  goodput : float;
  cpu_us_per_req : float;
  report : Report.t;
  outcome : Driver.outcome;
}

(* Every driver connection opens its op cycle with a get, so each window
   starts by priming the queue with one item per connection; otherwise
   those gets wait out their deadline on an empty queue. *)
let prime_queue d =
  match Client.connect (sockaddr d) with
  | Error _ -> ()
  | Ok c ->
    for i = 1 to connections do
      ignore (Client.request c ~deadline_ns:1_000_000_000L (Wire.Q_put (string_of_int i)))
    done;
    Client.close c

let drive d problem ~seed ~warmup_ms ~duration_ms =
  if problem = `Mix then prime_queue d;
  let (report, outcome), cpu_ns =
    Box.sample_window ~warmup_ms ~duration_ms
      (fun () -> Box.pid_cpu_ns d.pid)
      (fun () ->
        Driver.run ~sockaddr:(sockaddr d)
          (driver_cfg problem ~seed ~warmup_ms ~duration_ms))
  in
  let s = report.Report.summary in
  { goodput = s.Summary.throughput_per_s;
    cpu_us_per_req = float_of_int cpu_ns /. 1e3 /. float_of_int (max 1 s.Summary.total_ops);
    report;
    outcome }

let not_ok (o : Driver.outcome) = o.overloaded + o.deadline + o.conn_failed + o.bad

let requests (o : Driver.outcome) = o.ok + not_ok o

(* The daemon's answers are checked, not only its reply types: a ping,
   then a write that a read must return. *)
let probe d ~seed =
  match Client.connect (sockaddr d) with
  | Error e -> [ "probe: connect failed: " ^ e ]
  | Ok c ->
    let ask req expect =
      match Client.request c ~deadline_ns:1_000_000_000L req with
      | Ok (Wire.Ok v) when v = expect -> []
      | Ok (Wire.Ok v) ->
        [ Printf.sprintf "probe: %s answered %S, not %S" (Wire.op_name req) v expect ]
      | Ok _ -> [ Printf.sprintf "probe: %s was refused" (Wire.op_name req) ]
      | Error e ->
        [ Printf.sprintf "probe: %s: %s" (Wire.op_name req) (Client.error_to_string e) ]
    in
    let value = Printf.sprintf "v%d" seed in
    let ping = ask Wire.Ping "pong" in
    let put = ask (Wire.K_put ("bench-check", value)) "" in
    let errs = ping @ put @ ask (Wire.K_get "bench-check") value in
    Client.close c;
    errs

let probe_requests = 3

type t = { name : string; problem : Driver.problem }

let serve_kv = { name = "serve-kv"; problem = `Kv }

let serve_mix = { name = "serve-mix"; problem = `Mix }

type windows = {
  spawns : int;
  first_warmup_ms : int;
  rounds : int;
  warmup_ms : int;
  duration_ms : int;
}

let windows ~ms ~quick =
  if quick then
    { spawns = 1; first_warmup_ms = 50; rounds = 1; warmup_ms = 20; duration_ms = 100 }
  else
    let rounds = 4 in
    { spawns = 5; first_warmup_ms = 3000; rounds; warmup_ms = 50;
      duration_ms = max 100 (ms / rounds) }

(* Where a traced daemon writes its Chrome trace on exit. *)
let trace_file () =
  ensure_out_dir ();
  Printf.sprintf "%s/daemon-trace-%d.json" out_dir (Unix.getpid ())

let run ?traced w ~seed ~ms ~quick =
  let win = windows ~ms ~quick in
  (* Every spawn is timed; all but the last are stopped at once, and the
     last one serves the run. *)
  let ups =
    List.init (win.spawns - 1) (fun _ ->
        let d = spawn () in
        ignore (stop d);
        d.up_s)
  in
  let trace = Option.map (fun _ -> trace_file ()) traced in
  let d = spawn ?trace () in
  let ups = ups @ [ d.up_s ] in
  let warm =
    drive d w.problem ~seed:(seed * 100) ~warmup_ms:0 ~duration_ms:win.first_warmup_ms
  in
  let samples =
    List.init win.rounds (fun r ->
        drive d w.problem ~seed:((seed * 100) + r + 1) ~warmup_ms:win.warmup_ms
          ~duration_ms:win.duration_ms)
  in
  let probe_errs = probe d ~seed in
  let rss = Box.peak_rss_mb ~pid:(string_of_int d.pid) in
  let stopped = stop d in
  (match (traced, trace) with
  | Some acc, Some f ->
    Traced.add acc ~dropped:0 (Traced.events_of_chrome f);
    Sys.remove f
  | _ -> ());
  let outcomes = List.map (fun s -> s.outcome) (warm :: samples) in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let hung = sum (fun o -> o.Driver.hung) in
  let checks =
    probe_errs
    @ (if hung > 0 then [ Printf.sprintf "%d hung connection(s)" hung ] else [])
    @ if stopped.drain_clean then [] else [ "daemon drain was not clean" ]
  in
  let med f = Stat.median (List.map f samples) in
  let quantile_us f s =
    float_of_int (Summary.overall_quantile s.report.Report.summary f) /. 1e3
  in
  let floats f = Emit.List (List.map (fun s -> Emit.Float (f s)) samples) in
  let ints f = Emit.List (List.map (fun s -> Emit.Int (f s)) samples) in
  let detail =
    Emit.Obj
      [ ("cpu_us_per_op", Emit.Float (med (fun s -> s.cpu_us_per_req)));
        ("goodput_rps", floats (fun s -> s.goodput));
        ("server_cpu_us_per_req", floats (fun s -> s.cpu_us_per_req));
        ("req_p50_us", floats (quantile_us (fun o -> o.Summary.p50_ns)));
        ("req_p99_us", floats (quantile_us (fun o -> o.Summary.p99_ns)));
        ("ok", ints (fun s -> s.outcome.ok));
        ("not_ok", ints (fun s -> not_ok s.outcome));
        ("retries", ints (fun s -> s.outcome.retries));
        ("spawn_s", Emit.List (List.map (fun u -> Emit.Float u) ups));
        ("daemon_peak_rss_mb", Emit.Float rss);
        ("daemon_stats", stopped.stats);
        ("drain_clean", Emit.Bool stopped.drain_clean) ]
  in
  let windows =
    Emit.Obj
      [ ("spawns", Emit.Int win.spawns);
        ("first_warmup_ms", Emit.Int win.first_warmup_ms);
        ("rounds", Emit.Int win.rounds); ("warmup_ms", Emit.Int win.warmup_ms);
        ("duration_ms", Emit.Int win.duration_ms);
        ("connections", Emit.Int connections); ("rate_per_s", Emit.Float rate) ]
  in
  Doc.row ~workload:w.name
    ~attempted:(sum requests + probe_requests)
    ~failed:(sum not_ok + hung + List.length probe_errs)
    ~checks ~windows ~detail
    ~metrics:
      [ Doc.metric "ops_per_s" "1/s" (med (fun s -> s.goodput));
        Doc.metric "setup_s" "s" (Stat.median ups) ]
