open Sync_metrics
module Driver = Sync_workload.Serve_driver
module Loadgen = Sync_workload.Loadgen
module Proc = Sync_serve.Proc

type row = {
  scenario : string;
  problem : string;
  ok : int;
  deadline : int;
  overloaded : int;
  conn_failed : int;
  hung : int;
  recovered : int;
  drain_clean : bool;
  passed : bool;
  detail : string;
}

let find_exe () =
  let candidates =
    (match Sys.getenv_opt "SERVE_EXE" with Some p -> [ p ] | None -> [])
    @ [ Filename.concat (Filename.dirname Sys.executable_name) "bloom_serve.exe";
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/bloom_serve.exe";
        "_build/default/bin/bloom_serve.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some exe -> Ok exe
  | None ->
    Error
      (Printf.sprintf "bloom_serve.exe not found (tried %s)"
         (String.concat ", " candidates))

let sock_path scenario =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "bloom-e24-%s-%d.sock" scenario (Unix.getpid ()))

let base_config () =
  let duration_ms = Loadgen.duration_from_env ~default:600 in
  { Driver.default_config with
    connections = 4;
    rate_per_s = 200.0;
    duration_ms;
    warmup_ms = max 50 (duration_ms / 5);
    problem = `Mix }

let failed scenario detail =
  { scenario;
    problem = "mix";
    ok = 0;
    deadline = 0;
    overloaded = 0;
    conn_failed = 0;
    hung = 0;
    recovered = 0;
    drain_clean = false;
    passed = false;
    detail }

let row_of_outcome ~scenario ~recovered ~drain_clean ~extra_ok
    (o : Driver.outcome) =
  let passed = o.hung = 0 && drain_clean && extra_ok in
  { scenario;
    problem = "mix";
    ok = o.ok;
    deadline = o.deadline;
    overloaded = o.overloaded;
    conn_failed = o.conn_failed;
    hung = o.hung;
    recovered;
    drain_clean;
    passed;
    detail =
      (if passed then
         Printf.sprintf "%d ok, %d typed failures, all terminated" o.ok
           (o.deadline + o.overloaded + o.conn_failed + o.bad)
       else
         Printf.sprintf "hung=%d drain_clean=%b recovered=%d" o.hung
           drain_clean recovered) }

(* load / chaos: spawn, drive, SIGTERM, check the drain. *)
let spawn_and_drive ~scenario ~exe ~chaos =
  let sock = sock_path scenario in
  (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ());
  let args =
    [ "serve"; "--unix"; sock ]
    @ if chaos then [ "--chaos"; "--chaos-seed"; "7" ] else []
  in
  let child = Proc.spawn ~exe ~args in
  if not (Proc.wait_for_socket sock) then begin
    Proc.kill9 child;
    ignore (Proc.wait child);
    failed scenario "daemon never opened its socket"
  end
  else begin
    let _report, outcome =
      Driver.run ~sockaddr:(Unix.ADDR_UNIX sock) (base_config ())
    in
    Proc.sigterm child;
    let drain_clean =
      match Proc.wait child with `Exited 0 -> true | _ -> false
    in
    (* Chaos must not starve the run: demand some successes too. *)
    row_of_outcome ~scenario ~recovered:0 ~drain_clean ~extra_ok:(outcome.ok > 0)
      outcome
  end

let crash_drill ~exe =
  let sock = sock_path "crash" in
  (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ());
  match Driver.drill ~exe ~sock (base_config ()) with
  | Error msg -> failed "crash" msg
  | Ok d ->
    row_of_outcome ~scenario:"crash" ~recovered:d.ok_after_restart
      ~drain_clean:d.drain_clean
      ~extra_ok:(d.ok_after_restart > 0)
      d.outcome

let run ?(progress = fun _ -> ()) () =
  match find_exe () with
  | Error msg -> [ failed "load" msg ]
  | Ok exe ->
    List.map
      (fun mk ->
        let row = mk () in
        progress row;
        row)
      [ (fun () -> spawn_and_drive ~scenario:"load" ~exe ~chaos:false);
        (fun () -> spawn_and_drive ~scenario:"chaos" ~exe ~chaos:true);
        (fun () -> crash_drill ~exe) ]

let all_ok rows = List.for_all (fun r -> r.passed) rows

let to_json rows =
  Bench_doc.document ~experiment:"E24"
    ~description:
      "service tier: spawned daemons under load, chaos and a kill -9 crash \
       drill; typed outcome counts per scenario"
    (List.map
       (fun r ->
         Bench_doc.row
           ~status:(if r.passed then Bench_doc.Supported else Bench_doc.Failed r.detail)
           [ ("scenario", Emit.Str r.scenario); ("problem", Emit.Str r.problem) ]
           (List.map
              (fun (k, v) -> (k, float_of_int v))
              [ ("ok", r.ok); ("deadline", r.deadline);
                ("overloaded", r.overloaded); ("conn_failed", r.conn_failed);
                ("hung", r.hung); ("recovered", r.recovered) ]))
       rows)
