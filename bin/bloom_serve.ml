(* bloom-serve: the E24 fault-tolerant service tier.

   Four subcommands cover the whole experiment:

   - serve: the daemon. Serves the four Bloom problems over a Unix or
     TCP socket until SIGTERM/SIGINT, then drains gracefully; the exit
     status reports whether the drain beat its grace period.
   - drive: the open-loop client driver (optionally spawning its own
     daemon), emitting one report + outcome JSON document.
   - drill: the kill -9 recovery drill — crash the daemon mid-load,
     restart it, assert the clients rode through with zero hung
     connections and the survivor drains clean.
   - grid: the committed BENCH_E24.json sweep
     (problem x connections x rate). *)

open Cmdliner
module Server = Sync_serve.Server
module Chaos = Sync_serve.Chaos
module Proc = Sync_serve.Proc
module Driver = Sync_workload.Serve_driver
module Loadgen = Sync_workload.Loadgen
module Report = Sync_workload.Report
module Emit = Sync_metrics.Emit
module Doc = Sync_metrics.Bench_doc
module Probe = Sync_trace.Probe

let default_sock () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "bloom-serve-%d.sock" (Unix.getpid ()))

let ms_to_ns ms = Int64.of_int (ms * 1_000_000)

(* -- shared terms -------------------------------------------------- *)

let unix_t =
  Arg.(value & opt (some string) None
       & info [ "unix" ] ~docv:"PATH" ~doc:"serve/connect on a Unix socket")

let tcp_t =
  Arg.(value & opt (some int) None
       & info [ "tcp" ] ~docv:"PORT" ~doc:"serve/connect on 127.0.0.1:PORT")

let addr_of ~unix ~tcp =
  match (unix, tcp) with
  | Some p, _ -> Server.Unix_sock p
  | None, Some port -> Server.Tcp port
  | None, None -> Server.Unix_sock (default_sock ())

let sockaddr_of ~unix ~tcp =
  match (unix, tcp) with
  | Some p, _ -> Ok (Unix.ADDR_UNIX p)
  | None, Some port ->
    Ok (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  | None, None -> Error "need --unix PATH or --tcp PORT"

let chaos_t =
  Arg.(value & flag
       & info [ "chaos" ]
           ~doc:"enable the connection-chaos layer (seeded drop / delay / \
                 truncate / reset)")

let chaos_seed_t =
  Arg.(value & opt int 0
       & info [ "chaos-seed" ] ~docv:"SEED"
           ~doc:"seed for the chaos layer (replays byte-for-byte)")

let json_t =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE" ~doc:"write the JSON document to FILE")

let emit_json file doc =
  match file with
  | Some f -> Emit.write_file f doc
  | None -> print_endline (Emit.to_string ~pretty:true doc)

let stats_json (s : Server.stats) =
  Emit.Obj
    [ ("accepted", Emit.Int s.accepted);
      ("shed", Emit.Int s.shed);
      ("served", Emit.Int s.served);
      ("overloaded", Emit.Int s.overloaded);
      ("deadline_exceeded", Emit.Int s.deadline_exceeded);
      ("bad_request", Emit.Int s.bad_request);
      ("chaos_resets", Emit.Int s.chaos_resets) ]

(* -- serve --------------------------------------------------------- *)

let serve_cmd =
  let doc =
    "Run the daemon until SIGTERM/SIGINT, then drain. Exit 0 iff the drain \
     finished within the grace period."
  in
  let workers =
    Arg.(value & opt int 8
         & info [ "workers" ] ~docv:"N" ~doc:"connection-serving threads")
  in
  let accept_queue =
    Arg.(value & opt int 64
         & info [ "accept-queue" ] ~docv:"N"
             ~doc:"dispatch queue bound; beyond it connections are shed")
  in
  let rate =
    Arg.(value & opt float 2000.0
         & info [ "bucket-rate" ] ~docv:"TOK/S"
             ~doc:"per-problem admission token rate")
  in
  let burst =
    Arg.(value & opt int 256
         & info [ "bucket-burst" ] ~docv:"N" ~doc:"admission token burst")
  in
  let grace =
    Arg.(value & opt int 2000
         & info [ "grace-ms" ] ~docv:"MS"
             ~doc:"drain grace period before watchdog escalation")
  in
  let deadline =
    Arg.(value & opt int 250
         & info [ "default-deadline-ms" ] ~docv:"MS"
             ~doc:"budget applied to requests that send deadline 0")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"record E21 probes and write a Chrome trace on exit")
  in
  let run unix tcp workers accept_queue rate burst grace deadline chaos
      chaos_seed trace =
    let addr = addr_of ~unix ~tcp in
    let cfg =
      { (Server.default_config addr) with
        workers;
        accept_queue;
        bucket_rate = rate;
        bucket_burst = burst;
        grace_ms = grace;
        default_deadline_ns = ms_to_ns deadline;
        chaos =
          (if chaos then Some (Chaos.default_config ~seed:chaos_seed ())
           else None) }
    in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    if trace <> None then Probe.enable ();
    let t = Server.start cfg in
    let stop = Atomic.make false in
    let on_sig _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_sig);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_sig);
    while not (Atomic.get stop) do
      Thread.delay 0.05
    done;
    let clean = Server.drain t in
    (match trace with
    | Some f ->
      Probe.disable ();
      Sync_trace.Chrome.write_file f [ ("bloom_serve", Probe.snapshot ()) ]
    | None -> ());
    print_endline
      (Emit.to_string ~pretty:true
         (Emit.Obj
            [ ("stats", stats_json (Server.stats t));
              ("drain_clean", Emit.Bool clean) ]));
    exit (if clean then 0 else 1)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ unix_t $ tcp_t $ workers $ accept_queue $ rate $ burst
          $ grace $ deadline $ chaos_t $ chaos_seed_t $ trace)

(* -- driver config terms ------------------------------------------- *)

let connections_t =
  Arg.(value & opt int 8
       & info [ "connections"; "c" ] ~docv:"N" ~doc:"client connections")

let rate_t =
  Arg.(value & opt float 400.0
       & info [ "rate" ] ~docv:"REQ/S" ~doc:"aggregate offered rate")

let uniform_t =
  Arg.(value & flag
       & info [ "uniform" ] ~doc:"uniformly spaced arrivals (default Poisson)")

let duration_t =
  Arg.(value & opt (some int) None
       & info [ "duration-ms" ] ~docv:"MS"
           ~doc:"steady window (default 1000, or \\$SYNC_LOAD_MS)")

let warmup_t =
  Arg.(value & opt int 200 & info [ "warmup-ms" ] ~docv:"MS" ~doc:"warmup")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"driver seed")

let problem_conv =
  let parse s =
    match Driver.problem_of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  let print ppf p = Format.pp_print_string ppf (Driver.problem_to_string p) in
  Arg.conv (parse, print)

let problem_t =
  Arg.(value & opt problem_conv `Mix
       & info [ "problem" ] ~docv:"P" ~doc:"queue|sched|timer|kv|mix")

let deadline_ms_t =
  Arg.(value & opt int 50
       & info [ "deadline-ms" ] ~docv:"MS" ~doc:"per-request budget")

let churn_t =
  Arg.(value & opt int 64
       & info [ "churn" ] ~docv:"N"
           ~doc:"reconnect every N requests (0 = never)")

let retries_t =
  Arg.(value & opt int 6
       & info [ "retries" ] ~docv:"N" ~doc:"max retries per request")

let driver_config ~connections ~rate ~uniform ~duration ~warmup ~seed ~problem
    ~deadline_ms ~churn ~retries =
  { Driver.default_config with
    connections;
    rate_per_s = rate;
    arrival = (if uniform then Loadgen.Uniform_spaced else Loadgen.Poisson);
    duration_ms =
      (match duration with
      | Some d -> d
      | None -> Loadgen.duration_from_env ~default:1000);
    warmup_ms = warmup;
    seed;
    problem;
    deadline_ns = ms_to_ns deadline_ms;
    churn_every = churn;
    max_retries = retries }

let run_json report outcome =
  Emit.Obj
    [ ("report", Report.to_json report);
      ("outcome", Driver.outcome_to_json outcome) ]

(* -- drive --------------------------------------------------------- *)

let drive_cmd =
  let doc =
    "Open-loop load against a running daemon (or $(b,--spawn) one); emits \
     one report + outcome JSON document. Exits non-zero on hung \
     connections."
  in
  let spawn =
    Arg.(value & flag
         & info [ "spawn" ]
             ~doc:"spawn a daemon on the socket first, SIGTERM it after \
                   (adds drain_clean to the document)")
  in
  let run unix tcp connections rate uniform duration warmup seed problem
      deadline_ms churn retries chaos chaos_seed spawn json =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let cfg =
      driver_config ~connections ~rate ~uniform ~duration ~warmup ~seed
        ~problem ~deadline_ms ~churn ~retries
    in
    let finish ?drain_clean report (outcome : Driver.outcome) =
      let doc =
        match run_json report outcome with
        | Emit.Obj fields ->
          Emit.Obj
            (fields
            @
            match drain_clean with
            | Some b -> [ ("drain_clean", Emit.Bool b) ]
            | None -> [])
        | doc -> doc
      in
      emit_json json doc;
      exit (if outcome.hung = 0 then 0 else 1)
    in
    if spawn then begin
      let sock = match unix with Some p -> p | None -> default_sock () in
      let args =
        [ "serve"; "--unix"; sock ]
        @ (if chaos then [ "--chaos"; "--chaos-seed"; string_of_int chaos_seed ]
           else [])
      in
      let child = Proc.spawn ~exe:Sys.executable_name ~args in
      if not (Proc.wait_for_socket sock) then begin
        Proc.kill9 child;
        ignore (Proc.wait child);
        prerr_endline "bloom_serve drive: spawned daemon never came up";
        exit 2
      end;
      let report, outcome = Driver.run ~sockaddr:(Unix.ADDR_UNIX sock) cfg in
      Proc.sigterm child;
      let drain_clean =
        match Proc.wait child with `Exited 0 -> true | _ -> false
      in
      finish ~drain_clean report outcome
    end
    else
      match sockaddr_of ~unix ~tcp with
      | Error e ->
        prerr_endline ("bloom_serve drive: " ^ e);
        exit 2
      | Ok sockaddr ->
        let report, outcome = Driver.run ~sockaddr cfg in
        finish report outcome
  in
  Cmd.v (Cmd.info "drive" ~doc)
    Term.(const run $ unix_t $ tcp_t $ connections_t $ rate_t $ uniform_t
          $ duration_t $ warmup_t $ seed_t $ problem_t $ deadline_ms_t
          $ churn_t $ retries_t $ chaos_t $ chaos_seed_t $ spawn $ json_t)

(* -- drill --------------------------------------------------------- *)

let drill_cmd =
  let doc =
    "The kill -9 drill: spawn a daemon, drive load, crash it mid-run, \
     restart, assert client recovery (zero hung connections) and a clean \
     drain of the survivor."
  in
  let kill_at =
    Arg.(value & opt (some int) None
         & info [ "kill-at-ms" ] ~docv:"MS"
             ~doc:"crash point into the steady window (default a third)")
  in
  let restart_after =
    Arg.(value & opt int 50
         & info [ "restart-after-ms" ] ~docv:"MS" ~doc:"dead-air before restart")
  in
  let run unix connections rate uniform duration warmup seed problem
      deadline_ms churn retries chaos chaos_seed kill_at restart_after json =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let sock = match unix with Some p -> p | None -> default_sock () in
    let cfg =
      driver_config ~connections ~rate ~uniform ~duration ~warmup ~seed
        ~problem ~deadline_ms ~churn ~retries
    in
    let server_args =
      if chaos then [ "--chaos"; "--chaos-seed"; string_of_int chaos_seed ]
      else []
    in
    match
      Driver.drill ~exe:Sys.executable_name ~sock ~server_args ?kill_at_ms:kill_at
        ~restart_after_ms:restart_after cfg
    with
    | Error e ->
      prerr_endline ("bloom_serve drill: " ^ e);
      exit 2
    | Ok d ->
      emit_json json
        (Emit.Obj
           [ ("report", Report.to_json d.report);
             ("outcome", Driver.outcome_to_json d.outcome);
             ("ok_before_kill", Emit.Int d.ok_before_kill);
             ("ok_after_restart", Emit.Int d.ok_after_restart);
             ("drain_clean", Emit.Bool d.drain_clean) ]);
      let recovered = d.ok_after_restart > 0 in
      if d.outcome.hung = 0 && d.drain_clean && recovered then exit 0
      else begin
        Printf.eprintf
          "bloom_serve drill: FAILED (hung=%d drain_clean=%b \
           ok_after_restart=%d)\n\
           %!"
          d.outcome.hung d.drain_clean d.ok_after_restart;
        exit 1
      end
  in
  Cmd.v (Cmd.info "drill" ~doc)
    Term.(const run $ unix_t $ connections_t $ rate_t $ uniform_t $ duration_t
          $ warmup_t $ seed_t $ problem_t $ deadline_ms_t $ churn_t
          $ retries_t $ chaos_t $ chaos_seed_t $ kill_at $ restart_after
          $ json_t)

(* -- grid ---------------------------------------------------------- *)

(* One grid row: the driver's summary, every per-op field, then the
   typed outcome counts. *)
let grid_row (report : Report.t) outcome =
  let s = report.summary in
  Doc.row
    [ ("problem", Emit.Str report.problem);
      ("connections", Emit.Int report.workers);
      ("rate_per_s", Emit.Float (Option.value report.rate_per_s ~default:0.)) ]
    ([ ("elapsed_ns", Int64.to_float s.elapsed_ns);
       ("total_ops", float_of_int s.total_ops);
       ("total_failures", float_of_int s.total_failures);
       ("throughput_per_s", s.throughput_per_s) ]
    @ Doc.per_op s
    @ List.map (fun (k, v) -> (k, float_of_int v)) (Driver.outcome_fields outcome))

(* The knobs every row shares: the grid's windows and seed, and the
   report fields that are the same for every cell. *)
let grid_params ~duration_ms ~seed (r : Report.t) =
  [ ("duration_ms", Emit.Int duration_ms); ("seed", Emit.Int seed);
    ("variant", Emit.Str r.variant); ("mechanism", Emit.Str r.mechanism);
    ("tier", Emit.Str r.tier); ("backend", Emit.Str r.backend);
    ("mode", Emit.Str r.mode);
    ("arrival", Emit.Str (Option.value r.arrival ~default:"-"));
    ("warmup_ms", Emit.Int r.warmup_ms) ]

let grid_cmd =
  let doc =
    "Run the E24 service-tier grid (problem x connections x rate) against a \
     spawned daemon and write BENCH_E24.json."
  in
  let out =
    Arg.(value & opt string "BENCH_E24.json"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"output file")
  in
  let run out seed =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let sock = default_sock () in
    let child =
      Proc.spawn ~exe:Sys.executable_name ~args:[ "serve"; "--unix"; sock ]
    in
    if not (Proc.wait_for_socket sock) then begin
      Proc.kill9 child;
      ignore (Proc.wait child);
      prerr_endline "bloom_serve grid: daemon never came up";
      exit 2
    end;
    let duration_ms = Loadgen.duration_from_env ~default:800 in
    let problems = [ `Queue; `Sched; `Timer; `Kv ] in
    let conn_grid = [ 2; 8; 32 ] in
    let rate_grid = [ 500.0; 2000.0 ] in
    let cells = ref [] in
    List.iter
      (fun problem ->
        List.iter
          (fun connections ->
            List.iter
              (fun rate ->
                Printf.eprintf "grid: %s c=%d rate=%.0f\n%!"
                  (Driver.problem_to_string problem)
                  connections rate;
                let cfg =
                  { Driver.default_config with
                    connections;
                    rate_per_s = rate;
                    duration_ms;
                    warmup_ms = max 100 (duration_ms / 5);
                    seed;
                    problem }
                in
                let report, outcome =
                  Driver.run ~sockaddr:(Unix.ADDR_UNIX sock) cfg
                in
                cells := (report, outcome) :: !cells)
              rate_grid)
          conn_grid)
      problems;
    Proc.sigterm child;
    let drain_clean =
      match Proc.wait child with `Exited 0 -> true | _ -> false
    in
    let cells = List.rev !cells in
    Emit.write_file out
      (Doc.document ~experiment:"E24"
         ~description:"service tier: bloom_serve open loop, problem x connections x rate"
         ~params:
           (match cells with
           | (r, _) :: _ -> grid_params ~duration_ms ~seed r
           | [] -> [])
         ~summary:[ ("drain_clean", Emit.Bool drain_clean) ]
         (List.map (fun (r, o) -> grid_row r o) cells));
    Printf.eprintf "grid: wrote %s (%d rows, drain_clean=%b)\n%!" out
      (List.length cells) drain_clean;
    exit (if drain_clean then 0 else 1)
  in
  Cmd.v (Cmd.info "grid" ~doc) Term.(const run $ out $ seed_t)

let () =
  let doc = "the Bloom-problems service tier (experiment E24)" in
  let info = Cmd.info "bloom_serve" ~doc in
  exit (Cmd.eval (Cmd.group info [ serve_cmd; drive_cmd; drill_cmd; grid_cmd ]))
