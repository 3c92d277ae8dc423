open Sync_platform
open Sync_metrics
module Client = Sync_serve.Client
module Wire = Sync_serve.Wire
module Proc = Sync_serve.Proc

type problem = [ `Queue | `Sched | `Timer | `Kv | `Mix ]

let problem_of_string = function
  | "queue" -> Ok `Queue
  | "sched" -> Ok `Sched
  | "timer" -> Ok `Timer
  | "kv" -> Ok `Kv
  | "mix" -> Ok `Mix
  | s -> Error (Printf.sprintf "unknown serve problem %S (queue|sched|timer|kv|mix)" s)

let problem_to_string = function
  | `Queue -> "queue"
  | `Sched -> "sched"
  | `Timer -> "timer"
  | `Kv -> "kv"
  | `Mix -> "mix"

type config = {
  connections : int;
  rate_per_s : float;
  arrival : Loadgen.arrival;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
  problem : problem;
  deadline_ns : int64;
  churn_every : int;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  max_retries : int;
}

let default_config =
  { connections = 8;
    rate_per_s = 400.0;
    arrival = Loadgen.Poisson;
    duration_ms = 1000;
    warmup_ms = 200;
    seed = 42;
    problem = `Mix;
    deadline_ns = 50_000_000L;
    churn_every = 64;
    backoff_base_ms = 2;
    backoff_cap_ms = 200;
    max_retries = 6 }

type outcome = {
  ok : int;
  overloaded : int;
  deadline : int;
  conn_failed : int;
  bad : int;
  retries : int;
  reconnects : int;
  hung : int;
}

let outcome_fields o =
  [ ("ok", o.ok); ("overloaded", o.overloaded); ("deadline", o.deadline);
    ("conn_failed", o.conn_failed); ("bad", o.bad); ("retries", o.retries);
    ("reconnects", o.reconnects); ("hung", o.hung) ]

let outcome_to_json o =
  Emit.Obj (List.map (fun (k, v) -> (k, Emit.Int v)) (outcome_fields o))

(* Op mixes per served problem. Queue alternates put/get so the service
   queue neither drains dry nor fills to capacity systematically. *)
let ops_of_problem = function
  | `Queue -> [| "put"; "get" |]
  | `Sched -> [| "seek" |]
  | `Timer -> [| "sleep" |]
  | `Kv -> [| "kv.get"; "kv.put" |]
  | `Mix -> [| "put"; "get"; "seek"; "sleep"; "kv.get"; "kv.put" |]

let gen_request ~rng ~op_name ~pid ~n =
  match op_name with
  | "put" -> Wire.Q_put (Printf.sprintf "c%d-%d" pid n)
  | "get" -> Wire.Q_get
  | "seek" -> Wire.S_seek (Prng.int rng 256)
  | "sleep" -> Wire.T_sleep (1 + Prng.int rng 3)
  | "kv.get" -> Wire.K_get (Printf.sprintf "k%d" (Prng.int rng 64))
  | "kv.put" ->
    Wire.K_put (Printf.sprintf "k%d" (Prng.int rng 64), Printf.sprintf "v%d" n)
  | _ -> Wire.Ping

(* Per-actor mutable tallies, merged after join (share-nothing, like
   the per-worker recorders). *)
type tally = {
  mutable t_ok : int;
  mutable t_over : int;
  mutable t_dead : int;
  mutable t_conn : int;
  mutable t_bad : int;
  mutable t_retries : int;
  mutable t_reconnects : int;
  mutable t_done : bool;
  mutable t_ok_marks : int; (* ok count sampled at [mark] (drill phases) *)
}

let terminal = function
  | Ok (Wire.Ok _) -> `Ok
  | Ok (Wire.Overloaded _) -> `Over
  | Ok Wire.Deadline_exceeded -> `Dead
  | Ok (Wire.Bad_request _) | Ok Wire.Shutting_down -> `Bad
  | Error `Timeout -> `Dead
  | Error `Closed | Error (`Fail _) -> `Conn

let run_with_mark ~sockaddr ~mark cfg =
  if cfg.connections < 1 then
    invalid_arg "Serve_driver.run: connections must be >= 1";
  if cfg.rate_per_s <= 0.0 then
    invalid_arg "Serve_driver.run: rate must be positive";
  (* A chaos-reset or crashed daemon means writes to dead sockets; the
     driver must see EPIPE as `Closed, not die. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let op_names = ops_of_problem cfg.problem in
  let nops = Array.length op_names in
  let op_index =
    let tbl = Hashtbl.create 8 in
    Array.iteri (fun i n -> Hashtbl.replace tbl n i) op_names;
    fun n -> Hashtbl.find tbl n
  in
  let phase = Atomic.make 0 (* 0 warmup, 1 steady, 2 finished *) in
  let recorders =
    Array.init cfg.connections (fun _ ->
        [| Recorder.create ~ops:op_names (); Recorder.create ~ops:op_names () |])
  in
  let tallies =
    Array.init cfg.connections (fun _ ->
        { t_ok = 0; t_over = 0; t_dead = 0; t_conn = 0; t_bad = 0;
          t_retries = 0; t_reconnects = 0; t_done = false; t_ok_marks = 0 })
  in
  let base_rng = Prng.make (Int64.of_int cfg.seed) in
  let rngs = Array.init cfg.connections (fun _ -> Prng.split base_rng) in
  let mean_ia_ns = 1e9 *. float_of_int cfg.connections /. cfg.rate_per_s in
  let actor w () =
    let rng = rngs.(w) in
    let tl = tallies.(w) in
    let recs = recorders.(w) in
    let conn = ref None in
    let since_churn = ref 0 in
    let disconnect () =
      (match !conn with Some c -> Client.close c | None -> ());
      conn := None
    in
    (* Bounded reconnect: backoff between attempts; gives up (and lets
       the per-request retry loop count the failure) after max_retries. *)
    let rec connect attempt =
      match !conn with
      | Some c -> Some c
      | None ->
        if attempt > cfg.max_retries then None
        else (
          match Client.connect sockaddr with
          | Ok c ->
            tl.t_reconnects <- tl.t_reconnects + 1;
            conn := Some c;
            Some c
          | Error _ ->
            if Atomic.get phase >= 2 then None
            else begin
              Thread.delay
                (float_of_int
                   (Client.backoff_ms ~rng ~attempt ~base_ms:cfg.backoff_base_ms
                      ~cap_ms:cfg.backoff_cap_ms)
                /. 1e3);
              connect (attempt + 1)
            end)
    in
    let start_ns = Clock.now_ns () in
    let next_arrival = ref start_ns in
    let exp_draw mean =
      let u = Prng.float rng 1.0 in
      -.mean *. log (1.0 -. u)
    in
    (* Mirrors Loadgen's draws, including the E27 diurnal/bursty
       shapes, so the service tier can be driven under the same
       arrival processes as the in-process grid. *)
    let interarrival () =
      match cfg.arrival with
      | Loadgen.Uniform_spaced -> Int64.of_float mean_ia_ns
      | Loadgen.Poisson -> Int64.of_float (exp_draw mean_ia_ns)
      | Loadgen.Diurnal ->
        let t_ns = Int64.to_float (Int64.sub !next_arrival start_ns) in
        let phase =
          2.0 *. Float.pi *. t_ns
          /. (float_of_int Loadgen.diurnal_period_ms *. 1e6)
        in
        let factor = 1.0 +. (Loadgen.diurnal_amplitude *. sin phase) in
        Int64.of_float (exp_draw (mean_ia_ns /. Float.max 0.05 factor))
      | Loadgen.Bursty ->
        let scale =
          if Prng.float rng 1.0 < Loadgen.burst_gap_p then
            Loadgen.burst_gap_scale
          else Loadgen.burst_dense_scale
        in
        Int64.of_float (exp_draw (mean_ia_ns *. scale))
    in
    let rec wait_until ns =
      let now = Clock.now_ns () in
      if Int64.compare now ns >= 0 || Atomic.get phase >= 2 then ()
      else begin
        if Int64.compare (Int64.sub ns now) 2_000_000L > 0 then
          Thread.delay 0.001
        else Thread.yield ();
        wait_until ns
      end
    in
    let n = ref 0 in
    (* One request to its terminal outcome: retry Overloaded (honouring
       the server's hint) and connection failures under capped jittered
       backoff; Deadline_exceeded and Bad_request are terminal — the
       deadline was the client's own budget. *)
    let rec attempt_request req attempt =
      match connect 0 with
      | None -> Error `Closed
      | Some c -> (
        let r = Client.request c ~deadline_ns:cfg.deadline_ns req in
        match r with
        | Ok (Wire.Overloaded { retry_after_ms }) when attempt < cfg.max_retries
          ->
          tl.t_retries <- tl.t_retries + 1;
          let jitter =
            Client.backoff_ms ~rng ~attempt ~base_ms:cfg.backoff_base_ms
              ~cap_ms:cfg.backoff_cap_ms
          in
          Thread.delay (float_of_int (retry_after_ms + jitter) /. 1e3);
          if Atomic.get phase >= 2 then r else attempt_request req (attempt + 1)
        | Error (`Closed | `Fail _) when attempt < cfg.max_retries ->
          (* Reset / refused: reconnect after jittered backoff. *)
          disconnect ();
          tl.t_retries <- tl.t_retries + 1;
          Thread.delay
            (float_of_int
               (Client.backoff_ms ~rng ~attempt ~base_ms:cfg.backoff_base_ms
                  ~cap_ms:cfg.backoff_cap_ms)
            /. 1e3);
          if Atomic.get phase >= 2 then r else attempt_request req (attempt + 1)
        | Error `Timeout ->
          (* The stream may hold a late reply; resynchronize by
             reconnecting, but the request itself is terminal (its
             deadline has passed). *)
          disconnect ();
          r
        | _ -> r)
    in
    while Atomic.get phase < 2 do
      let s = !next_arrival in
      next_arrival := Int64.add s (interarrival ());
      wait_until s;
      if Atomic.get phase < 2 then begin
        incr n;
        let op = op_names.(!n mod nops) in
        let req = gen_request ~rng ~op_name:op ~pid:w ~n:!n in
        (if cfg.churn_every > 0 && !since_churn >= cfg.churn_every then begin
           disconnect ();
           since_churn := 0
         end);
        incr since_churn;
        let outcome = attempt_request req 0 in
        (match terminal outcome with
        | `Ok -> tl.t_ok <- tl.t_ok + 1
        | `Over -> tl.t_over <- tl.t_over + 1
        | `Dead -> tl.t_dead <- tl.t_dead + 1
        | `Conn -> tl.t_conn <- tl.t_conn + 1
        | `Bad -> tl.t_bad <- tl.t_bad + 1);
        let ph = Atomic.get phase in
        if ph <= 1 then begin
          let i = op_index op in
          match terminal outcome with
          | `Ok ->
            (* Coordinated-omission corrected: from intended arrival,
               including any retry/backoff delay. *)
            Recorder.record recs.(ph) ~op:i
              ~ns:(Int64.to_int (Int64.sub (Clock.now_ns ()) s))
          | _ -> Recorder.record_failure recs.(ph) ~op:i
        end
      end
    done;
    disconnect ();
    tl.t_done <- true
  in
  let threads =
    Array.to_list
      (Array.init cfg.connections (fun w -> Thread.create (actor w) ()))
  in
  if cfg.warmup_ms > 0 then Thread.delay (float_of_int cfg.warmup_ms /. 1e3);
  Atomic.set phase 1;
  let t0 = Clock.now_ns () in
  mark ~phase ~tallies;
  Atomic.set phase 2;
  let t1 = Clock.now_ns () in
  (* Join with a deadline: every actor is built to terminate (deadlines
     + socket timeouts + capped retries), so a straggler past the slack
     is precisely a hung connection — count it, do not wait forever. *)
  let join_slack_s =
    2.0 +. (Int64.to_float cfg.deadline_ns /. 1e9)
    +. (float_of_int (cfg.backoff_cap_ms * (cfg.max_retries + 1)) /. 1e3)
  in
  let join_deadline = Int64.add (Clock.now_ns ()) (Int64.of_float (join_slack_s *. 1e9)) in
  let rec settle () =
    if Array.for_all (fun tl -> tl.t_done) tallies then true
    else if Int64.compare (Clock.now_ns ()) join_deadline >= 0 then false
    else begin
      Thread.delay 0.01;
      settle ()
    end
  in
  let all_done = settle () in
  if all_done then List.iter Thread.join threads;
  let hung = Array.fold_left (fun a tl -> if tl.t_done then a else a + 1) 0 tallies in
  let merged =
    Recorder.merge (Array.to_list (Array.map (fun r -> r.(1)) recorders))
  in
  let summary = Summary.of_recorder ~elapsed_ns:(Int64.sub t1 t0) merged in
  let outcome =
    Array.fold_left
      (fun o tl ->
        { o with
          ok = o.ok + tl.t_ok;
          overloaded = o.overloaded + tl.t_over;
          deadline = o.deadline + tl.t_dead;
          conn_failed = o.conn_failed + tl.t_conn;
          bad = o.bad + tl.t_bad;
          retries = o.retries + tl.t_retries;
          reconnects = o.reconnects + tl.t_reconnects })
      { ok = 0; overloaded = 0; deadline = 0; conn_failed = 0; bad = 0;
        retries = 0; reconnects = 0; hung }
      tallies
  in
  let report =
    { Report.problem = problem_to_string cfg.problem ^ "-service";
      variant = "serve";
      mechanism = "bloom_serve";
      tier = "serve";
      workers = cfg.connections;
      backend = "thread";
      mode = "open";
      rate_per_s = Some cfg.rate_per_s;
      arrival = Some (Loadgen.arrival_name cfg.arrival);
      duration_ms = cfg.duration_ms;
      warmup_ms = cfg.warmup_ms;
      seed = cfg.seed;
      summary }
  in
  (report, outcome)

let run ~sockaddr cfg =
  run_with_mark ~sockaddr cfg ~mark:(fun ~phase:_ ~tallies:_ ->
      Thread.delay (float_of_int cfg.duration_ms /. 1e3))

(* -- the kill -9 drill --------------------------------------------- *)

type drill = {
  report : Report.t;
  outcome : outcome;
  ok_before_kill : int;
  ok_after_restart : int;
  drain_clean : bool;
}

let sum_ok tallies = Array.fold_left (fun a tl -> a + tl.t_ok) 0 tallies

let drill ~exe ~sock ?(server_args = []) ?kill_at_ms ?(restart_after_ms = 50)
    cfg =
  let kill_at_ms =
    match kill_at_ms with Some m -> m | None -> cfg.duration_ms / 3
  in
  let args = [ "serve"; "--unix"; sock ] @ server_args in
  let first = Proc.spawn ~exe ~args in
  if not (Proc.wait_for_socket sock) then begin
    Proc.kill9 first;
    ignore (Proc.wait first);
    Error (Printf.sprintf "server %s never opened %s" exe sock)
  end
  else begin
    let ok_before_kill = ref 0 in
    let ok_at_restart = ref 0 in
    let second = ref None in
    let drain_clean = ref false in
    let mark ~phase:_ ~tallies =
      (* Steady phase timeline: load → kill -9 → dead air → restart →
         recovery window. *)
      Thread.delay (float_of_int kill_at_ms /. 1e3);
      ok_before_kill := sum_ok tallies;
      Proc.kill9 first;
      ignore (Proc.wait first);
      Thread.delay (float_of_int restart_after_ms /. 1e3);
      let s = Proc.spawn ~exe ~args in
      second := Some s;
      ignore (Proc.wait_for_socket sock);
      ok_at_restart := sum_ok tallies;
      let remaining = cfg.duration_ms - kill_at_ms in
      Thread.delay (float_of_int (max 50 remaining) /. 1e3)
    in
    let report, outcome =
      run_with_mark ~sockaddr:(Unix.ADDR_UNIX sock) ~mark cfg
    in
    let ok_after_restart = outcome.ok - !ok_at_restart in
    (match !second with
    | Some s ->
      Proc.sigterm s;
      drain_clean := (match Proc.wait s with `Exited 0 -> true | _ -> false)
    | None -> ());
    Ok
      { report;
        outcome;
        ok_before_kill = !ok_before_kill;
        ok_after_restart;
        drain_clean = !drain_clean }
  end
