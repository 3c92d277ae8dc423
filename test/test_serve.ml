(* Tier-1 tests for the E24 service tier: the wire codec (property
   tested — the deadline-offset bug class must stay dead), framing
   against real sockets, the seeded chaos layer's byte-for-byte replay
   contract, the token-bucket admission gate, an in-process
   client/server round trip with deadline propagation, and the kill -9
   crash drill against the real bloom_serve binary. *)

open Sync_serve

let show_req = function
  | Wire.Ping -> "Ping"
  | Wire.Q_put s -> Printf.sprintf "Q_put %S" s
  | Wire.Q_get -> "Q_get"
  | Wire.S_seek t -> Printf.sprintf "S_seek %d" t
  | Wire.T_sleep t -> Printf.sprintf "T_sleep %d" t
  | Wire.K_get k -> Printf.sprintf "K_get %S" k
  | Wire.K_put (k, v) -> Printf.sprintf "K_put (%S, %S)" k v

let show_reply = function
  | Wire.Ok s -> Printf.sprintf "Ok %S" s
  | Wire.Overloaded { retry_after_ms } ->
    Printf.sprintf "Overloaded %dms" retry_after_ms
  | Wire.Deadline_exceeded -> "Deadline_exceeded"
  | Wire.Bad_request m -> Printf.sprintf "Bad_request %S" m
  | Wire.Shutting_down -> "Shutting_down"

let reply_t =
  Alcotest.testable (fun ppf r -> Format.pp_print_string ppf (show_reply r)) ( = )

(* -- wire codec: properties ---------------------------------------- *)

let gen_req =
  QCheck.Gen.(
    let str n = string_size ~gen:printable (0 -- n) in
    oneof
      [ return Wire.Ping;
        map (fun s -> Wire.Q_put s) (str 300);
        return Wire.Q_get;
        map (fun t -> Wire.S_seek t) (int_range 0 100_000);
        map (fun t -> Wire.T_sleep t) (int_range 0 100_000);
        map (fun k -> Wire.K_get k) (str 100);
        map2 (fun k v -> Wire.K_put (k, v)) (str 60) (str 300) ])

(* Deadlines cover the edges that bit us live: 0 (use server default),
   tiny, realistic, and extreme values whose top byte is nonzero — a
   header-offset slip shows up immediately on those. *)
let gen_deadline =
  QCheck.Gen.(
    oneof
      [ oneofl
          [ 0L; 1L; 50_000_000L; 0x0102030405060708L; Int64.max_int;
            Int64.min_int; -1L ];
        map Int64.of_int int ])

let arb_request =
  QCheck.make
    ~print:(fun (d, r) -> Printf.sprintf "(deadline=%Ld, %s)" d (show_req r))
    QCheck.Gen.(pair gen_deadline gen_req)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request encode/decode round-trips" ~count:500
    arb_request (fun (deadline_ns, req) ->
      match Wire.decode_request (Wire.encode_request ~deadline_ns req) with
      | Ok (d, r) -> d = deadline_ns && r = req
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let gen_reply =
  QCheck.Gen.(
    let str n = string_size ~gen:printable (0 -- n) in
    oneof
      [ map (fun s -> Wire.Ok s) (str 300);
        map
          (fun n -> Wire.Overloaded { retry_after_ms = n })
          (int_range 0 1_000_000);
        return Wire.Deadline_exceeded;
        map (fun m -> Wire.Bad_request m) (str 100);
        return Wire.Shutting_down ])

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"reply encode/decode round-trips" ~count:500
    (QCheck.make ~print:show_reply gen_reply) (fun reply ->
      match Wire.decode_reply (Wire.encode_reply reply) with
      | Ok r -> r = reply
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* Decoding never raises on junk — it answers Ok or Error. *)
let prop_decode_total =
  QCheck.Test.make ~name:"decode_request is total on junk" ~count:500
    QCheck.(string_gen Gen.(char_range '\000' '\255'))
    (fun s ->
      (match Wire.decode_request s with Ok _ | Error _ -> true)
      && match Wire.decode_reply s with Ok _ | Error _ -> true)

(* The header layout, pinned byte by byte: version at 0, opcode at 1,
   deadline big-endian at 2. A decoder reading the deadline at offset 1
   folds the opcode into the top byte — the exact bug this regression
   test exists for. *)
let test_header_layout () =
  let deadline_ns = 0x1122334455667788L in
  let s = Wire.encode_request ~deadline_ns (Wire.S_seek 7) in
  Alcotest.(check int) "version byte" 1 (Char.code s.[0]);
  Alcotest.(check int) "opcode byte" 3 (Char.code s.[1]);
  Alcotest.(check int64) "deadline at offset 2" deadline_ns
    (String.get_int64_be s 2);
  match Wire.decode_request s with
  | Ok (d, Wire.S_seek 7) ->
    Alcotest.(check int64) "decoded deadline unpolluted by opcode" deadline_ns d
  | Ok (d, r) -> Alcotest.failf "wrong decode: (%Ld, %s)" d (show_req r)
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_decode_rejects () =
  let bad s =
    match Wire.decode_request s with
    | Error _ -> ()
    | Ok (d, r) ->
      Alcotest.failf "accepted junk as (%Ld, %s)" d (show_req r)
  in
  bad "";
  bad "\001\000";
  (* short header *)
  bad ("\002\000" ^ String.make 8 '\000');
  (* wrong version *)
  bad ("\001\099" ^ String.make 8 '\000');
  (* unknown opcode *)
  bad ("\001\000" ^ String.make 8 '\000' ^ "x");
  (* ping with trailing bytes *)
  bad ("\001\003" ^ String.make 8 '\000' ^ "xy");
  (* seek body must be 4 bytes *)
  (* kv.put whose declared key length exceeds the payload *)
  bad ("\001\006" ^ String.make 8 '\000' ^ "\255\255ab")

(* -- framing over a real socket pair ------------------------------- *)

let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let read_err_t =
  Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf (Wire.read_error_to_string e))
    ( = )

let check_read_error msg expected = function
  | Result.Ok payload -> Alcotest.failf "%s: got a frame (%S)" msg payload
  | Error e -> Alcotest.check read_err_t msg expected e

let test_frame_roundtrip () =
  with_pair (fun a b ->
      Wire.write_frame a "hello";
      (match Wire.read_frame b with
      | Result.Ok p -> Alcotest.(check string) "payload" "hello" p
      | Error e -> Alcotest.failf "read failed: %s" (Wire.read_error_to_string e));
      Wire.write_frame a "";
      match Wire.read_frame b with
      | Result.Ok p -> Alcotest.(check string) "empty payload" "" p
      | Error e -> Alcotest.failf "read failed: %s" (Wire.read_error_to_string e))

let test_frame_oversized () =
  with_pair (fun a b ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int (Wire.max_frame + 1));
      write_all a (Bytes.to_string hdr);
      check_read_error "oversized advertisement"
        (Wire.Oversized (Wire.max_frame + 1))
        (Wire.read_frame b));
  with_pair (fun a b ->
      (* A negative advertised length is oversized too, never an alloc. *)
      write_all a "\255\255\255\255";
      match Wire.read_frame b with
      | Error (Wire.Oversized _) -> ()
      | Result.Ok p -> Alcotest.failf "accepted negative length (%S)" p
      | Error e ->
        Alcotest.failf "wrong error: %s" (Wire.read_error_to_string e))

let test_frame_truncated () =
  with_pair (fun a b ->
      (* Header promises 10 bytes; only 3 arrive before the close. *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 10l;
      write_all a (Bytes.to_string hdr);
      write_all a "abc";
      Unix.close a;
      check_read_error "mid-payload close" Wire.Truncated (Wire.read_frame b));
  with_pair (fun a b ->
      write_all a "\000\000";
      Unix.close a;
      check_read_error "mid-header close" Wire.Truncated (Wire.read_frame b))

let test_frame_eof_and_timeout () =
  with_pair (fun a b ->
      Unix.close a;
      check_read_error "close at boundary" Wire.Eof (Wire.read_frame b));
  with_pair (fun _a b ->
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.05;
      check_read_error "receive timeout" Wire.Timeout (Wire.read_frame b))

let test_write_frame_limit () =
  with_pair (fun a _b ->
      Alcotest.check_raises "payload above max_frame"
        (Invalid_argument
           (Printf.sprintf "Wire.write_frame: %d > max_frame"
              (Wire.max_frame + 1)))
        (fun () -> Wire.write_frame a (String.make (Wire.max_frame + 1) 'x')))

(* -- chaos: seeded, replayable by (seed, conn_id) ------------------- *)

let lively_chaos seed =
  { Chaos.seed; drop = 0.15; delay = 0.1; delay_ms = 1; truncate = 0.1;
    reset = 0.1 }

(* Alternate read/write sites until the chaos layer kills the
   connection (or the step budget runs out) and return the action
   trace. Identical (seed, conn_id) must reproduce it byte for byte. *)
let drive_chaos cfg ~conn_id ~steps =
  with_pair (fun a _b ->
      let chaos = Chaos.create cfg ~conn_id in
      (try
         for i = 1 to steps do
           if i mod 2 = 0 then Chaos.on_write chaos a "ok"
           else ignore (Chaos.on_read chaos (fun () -> ()))
         done
       with Chaos.Injected_reset _ -> ());
      Chaos.trace chaos)

let test_chaos_replay () =
  let cfg = lively_chaos 7 in
  let t1 = drive_chaos cfg ~conn_id:3 ~steps:200 in
  let t2 = drive_chaos cfg ~conn_id:3 ~steps:200 in
  Alcotest.(check (list string)) "same (seed, conn) replays identically" t1 t2;
  Alcotest.(check bool) "chaos actually acted" true
    (List.exists (fun s -> s <> "r:pass" && s <> "w:pass") t1);
  let other_conn = drive_chaos cfg ~conn_id:4 ~steps:200 in
  Alcotest.(check bool) "different conn_id draws a different stream" false
    (t1 = other_conn);
  let other_seed = drive_chaos (lively_chaos 8) ~conn_id:3 ~steps:200 in
  Alcotest.(check bool) "different seed draws a different stream" false
    (t1 = other_seed)

let test_chaos_disabled () =
  with_pair (fun a b ->
      Chaos.on_write Chaos.disabled a "plain";
      (match Wire.read_frame b with
      | Result.Ok p -> Alcotest.(check string) "passthrough write" "plain" p
      | Error e -> Alcotest.failf "read failed: %s" (Wire.read_error_to_string e));
      match Chaos.on_read Chaos.disabled (fun () -> 42) with
      | `Data n -> Alcotest.(check int) "passthrough read" 42 n
      | `Dropped -> Alcotest.fail "disabled chaos dropped a read");
  Alcotest.(check (list string)) "no trace when disabled" []
    (Chaos.trace Chaos.disabled)

(* The E19 registry gets first refusal: a planned injection forces a
   reset at an exact site hit without shifting the seeded stream. *)
let test_chaos_fault_plan () =
  let quiet =
    { Chaos.seed = 0; drop = 0.0; delay = 0.0; delay_ms = 0; truncate = 0.0;
      reset = 0.0 }
  in
  let trace =
    Sync_platform.Fault.with_plan
      (Sync_platform.Fault.plan
         [ ("serve.conn.write", Sync_platform.Fault.Nth 2) ])
      (fun () -> drive_chaos quiet ~conn_id:0 ~steps:10)
  in
  Alcotest.(check (list string)) "reset forced at exactly the 2nd write"
    [ "r:pass"; "w:pass"; "r:pass"; "w:reset" ]
    trace

(* -- token-bucket admission ---------------------------------------- *)

let test_bucket () =
  (* A glacial refill makes the burst boundary deterministic. *)
  let b = Bucket.create ~rate_per_s:0.001 ~burst:2 in
  Alcotest.(check bool) "1st token" true (Bucket.try_take b);
  Alcotest.(check bool) "2nd token" true (Bucket.try_take b);
  Alcotest.(check bool) "burst exhausted" false (Bucket.try_take b);
  Alcotest.(check bool) "retry hint >= 1ms when empty" true
    (Bucket.retry_after_ms b >= 1);
  let full = Bucket.create ~rate_per_s:1000.0 ~burst:1 in
  Alcotest.(check int) "no hint while a token exists" 0
    (Bucket.retry_after_ms full);
  Alcotest.check_raises "zero rate rejected"
    (Invalid_argument "Bucket.create: rate must be positive") (fun () ->
      ignore (Bucket.create ~rate_per_s:0.0 ~burst:1));
  Alcotest.check_raises "zero burst rejected"
    (Invalid_argument "Bucket.create: burst must be >= 1") (fun () ->
      ignore (Bucket.create ~rate_per_s:1.0 ~burst:0))

(* -- in-process server round trip ---------------------------------- *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bloom-t1-%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

let with_server ?chaos f =
  let cfg =
    { (Server.default_config (Server.Unix_sock (fresh_sock ()))) with
      Server.workers = 2;
      chaos }
  in
  let server = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> ignore (Server.drain server))
    (fun () -> f server)

let request_exn client ~deadline_ns req =
  match Client.request client ~deadline_ns req with
  | Ok reply -> reply
  | Error e ->
    Alcotest.failf "%s failed: %s" (Wire.op_name req) (Client.error_to_string e)

let test_server_roundtrip () =
  with_server (fun server ->
      match Client.connect (Server.sockaddr server) with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c ->
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            let ask = request_exn c ~deadline_ns:500_000_000L in
            Alcotest.check reply_t "ping" (Wire.Ok "pong") (ask Wire.Ping);
            Alcotest.check reply_t "enqueue" (Wire.Ok "")
              (ask (Wire.Q_put "job-1"));
            Alcotest.check reply_t "dequeue returns the item" (Wire.Ok "job-1")
              (ask Wire.Q_get);
            Alcotest.check reply_t "kv write" (Wire.Ok "")
              (ask (Wire.K_put ("k", "v")));
            Alcotest.check reply_t "kv read" (Wire.Ok "v")
              (ask (Wire.K_get "k"));
            Alcotest.check reply_t "kv miss is empty" (Wire.Ok "")
              (ask (Wire.K_get "absent"));
            (match ask (Wire.S_seek 10) with
            | Wire.Ok _ -> ()
            | r -> Alcotest.failf "seek: %s" (show_reply r));
            (match ask (Wire.S_seek 100_000) with
            | Wire.Bad_request _ -> ()
            | r -> Alcotest.failf "out-of-range seek: %s" (show_reply r));
            Alcotest.check reply_t "zero-tick sleep" (Wire.Ok "0")
              (ask (Wire.T_sleep 0)));
        let stats = Server.stats server in
        Alcotest.(check bool) "requests were counted" true (stats.served >= 9))

(* Deadline propagation end to end: a Q_get against an empty queue can
   only end as a typed Deadline_exceeded — and an already-spent budget
   fast-rejects without waiting. *)
let test_server_deadline () =
  with_server (fun server ->
      match Client.connect (Server.sockaddr server) with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c ->
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            let t0 = Sync_platform.Clock.now_ns () in
            Alcotest.check reply_t "blocked get times out"
              Wire.Deadline_exceeded
              (request_exn c ~deadline_ns:30_000_000L Wire.Q_get);
            Alcotest.check reply_t "1ns budget fast-rejects"
              Wire.Deadline_exceeded
              (request_exn c ~deadline_ns:1L Wire.Q_get);
            let elapsed_ms =
              Int64.to_int
                (Int64.div
                   (Int64.sub (Sync_platform.Clock.now_ns ()) t0)
                   1_000_000L)
            in
            Alcotest.(check bool)
              (Printf.sprintf "both bounded by their budgets (%dms)" elapsed_ms)
              true (elapsed_ms < 2_000)))

let test_server_rejects_oversized () =
  with_server (fun server ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Server.sockaddr server);
          let hdr = Bytes.create 4 in
          Bytes.set_int32_be hdr 0 (Int32.of_int (Wire.max_frame + 100));
          write_all fd (Bytes.to_string hdr);
          (match Wire.read_frame fd with
          | Result.Ok payload -> (
            match Wire.decode_reply payload with
            | Ok (Wire.Bad_request _) -> ()
            | Ok r -> Alcotest.failf "wrong reply: %s" (show_reply r)
            | Error e -> Alcotest.failf "undecodable reply: %s" e)
          | Error e ->
            Alcotest.failf "no typed refusal: %s" (Wire.read_error_to_string e));
          (* ... and the stream is dead afterwards. *)
          match Wire.read_frame fd with
          | Error (Wire.Eof | Wire.Truncated) -> ()
          | Result.Ok _ -> Alcotest.fail "server kept a poisoned stream open"
          | Error e ->
            Alcotest.failf "unexpected error: %s" (Wire.read_error_to_string e)))

let test_server_drain_idempotent () =
  let cfg = Server.default_config (Server.Unix_sock (fresh_sock ())) in
  let server = Server.start cfg in
  Alcotest.(check bool) "first drain clean" true (Server.drain server);
  Alcotest.(check bool) "repeat drain still true" true (Server.drain server);
  match Client.connect (Server.sockaddr server) with
  | Error _ -> ()
  | Ok c ->
    (* The listener is gone; at best a stale connect surfaces a typed
       failure on first use. *)
    Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
        match Client.request c ~deadline_ns:50_000_000L Wire.Ping with
        | Ok Wire.Shutting_down | Error _ -> ()
        | Ok r -> Alcotest.failf "drained server answered: %s" (show_reply r))

(* A drain that outlives its grace: the one worker sleeps far past it.
   The drain gives up within about grace + 1 s and force-closes the
   connection, so the client sees it closed instead of waiting out its
   budget; the worker then unwinds with Shutting_down once the service
   stops (a million 2 ms ticks cannot elapse, and its deadline has not
   passed, so Shutting_down is the only reply left to it). *)
let test_server_stuck_drain () =
  let cfg =
    { (Server.default_config (Server.Unix_sock (fresh_sock ()))) with
      Server.workers = 1;
      grace_ms = 200 }
  in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> ignore (Server.drain server)) (fun () ->
      match Client.connect (Server.sockaddr server) with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c ->
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            Alcotest.check reply_t "ping" (Wire.Ok "pong")
              (request_exn c ~deadline_ns:500_000_000L Wire.Ping);
            let reply = ref None in
            let sleeper =
              Thread.create
                (fun () ->
                  reply :=
                    Some
                      (Client.request c ~deadline_ns:10_000_000_000L
                         (Wire.T_sleep 1_000_000)))
                ()
            in
            (* Let the worker take the request into its sleep. *)
            Thread.delay 0.2;
            let ms_since t0 =
              Int64.to_int
                (Int64.div
                   (Int64.sub (Sync_platform.Clock.now_ns ()) t0)
                   1_000_000L)
            in
            let t0 = Sync_platform.Clock.now_ns () in
            Alcotest.(check bool) "stuck drain is not clean" false
              (Server.drain server);
            let drain_ms = ms_since t0 in
            Alcotest.(check bool)
              (Printf.sprintf "drain gave up within grace + 1 s (%d ms)"
                 drain_ms)
              true
              (drain_ms < cfg.grace_ms + 1_000);
            Thread.join sleeper;
            (match !reply with
            | Some (Error `Closed) -> ()
            | Some (Ok r) ->
              Alcotest.failf "sleeper answered: %s" (show_reply r)
            | Some (Error e) ->
              Alcotest.failf "sleeper: %s" (Client.error_to_string e)
            | None -> Alcotest.fail "sleeper never returned");
            Alcotest.(check bool)
              (Printf.sprintf "client saw the close at once (%d ms)"
                 (ms_since t0))
              true
              (ms_since t0 < cfg.grace_ms + 1_000);
            Testutil.eventually "the stuck worker replied" (fun () ->
                (Server.stats server).served = 2);
            Alcotest.(check int) "not by its deadline" 0
              (Server.stats server).deadline_exceeded))

(* A chaotic in-process run must still terminate every request: typed
   outcomes only, zero hung client actors, clean drain. *)
let test_server_chaos_run () =
  with_server ~chaos:(Chaos.default_config ~seed:7 ()) (fun server ->
      let cfg =
        { Sync_workload.Serve_driver.default_config with
          connections = 2;
          rate_per_s = 100.0;
          duration_ms = 300;
          warmup_ms = 50;
          problem = `Mix;
          churn_every = 8 }
      in
      let _report, outcome =
        Sync_workload.Serve_driver.run ~sockaddr:(Server.sockaddr server) cfg
      in
      Alcotest.(check int) "no hung client actors" 0 outcome.hung;
      Alcotest.(check bool) "some requests succeeded" true (outcome.ok > 0))

(* -- the kill -9 drill against the real binary --------------------- *)

let serve_exe () =
  let cand =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/bloom_serve.exe"
  in
  if Sys.file_exists cand then Some cand else None

let test_kill9_drill () =
  match serve_exe () with
  | None -> print_string "  [skip] bloom_serve.exe not built\n"
  | Some exe ->
    let cfg =
      { Sync_workload.Serve_driver.default_config with
        connections = 3;
        rate_per_s = 150.0;
        duration_ms = 500;
        warmup_ms = 50;
        seed = 11;
        problem = `Mix;
        churn_every = 16 }
    in
    (match
       Sync_workload.Serve_driver.drill ~exe ~sock:(fresh_sock ())
         ~kill_at_ms:150 ~restart_after_ms:50 cfg
     with
    | Error msg -> Alcotest.failf "drill: %s" msg
    | Ok d ->
      Alcotest.(check int) "zero hung connections across the crash" 0
        d.outcome.hung;
      Alcotest.(check bool) "restarted daemon served requests" true
        (d.ok_after_restart > 0);
      Alcotest.(check bool) "survivor drained clean on SIGTERM" true
        d.drain_clean)

let () =
  Alcotest.run "serve"
    [ ( "wire",
        [ Testutil.qcheck_case prop_request_roundtrip;
          Testutil.qcheck_case prop_reply_roundtrip;
          Testutil.qcheck_case prop_decode_total;
          Alcotest.test_case "header layout pinned" `Quick test_header_layout;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_decode_rejects ] );
      ( "framing",
        [ Alcotest.test_case "round trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversized rejected" `Quick test_frame_oversized;
          Alcotest.test_case "truncated detected" `Quick test_frame_truncated;
          Alcotest.test_case "eof and timeout typed" `Quick
            test_frame_eof_and_timeout;
          Alcotest.test_case "write_frame bounds" `Quick test_write_frame_limit
        ] );
      ( "chaos",
        [ Alcotest.test_case "seeded replay byte-for-byte" `Quick
            test_chaos_replay;
          Alcotest.test_case "disabled is a no-op" `Quick test_chaos_disabled;
          Alcotest.test_case "fault plan forces exact resets" `Quick
            test_chaos_fault_plan ] );
      ("bucket", [ Alcotest.test_case "admission edges" `Quick test_bucket ]);
      ( "server",
        [ Alcotest.test_case "request round trip" `Quick test_server_roundtrip;
          Alcotest.test_case "deadline propagation" `Quick test_server_deadline;
          Alcotest.test_case "oversized frame refused" `Quick
            test_server_rejects_oversized;
          Alcotest.test_case "drain idempotent" `Quick
            test_server_drain_idempotent;
          Alcotest.test_case "stuck drain escalates" `Quick
            test_server_stuck_drain;
          Alcotest.test_case "chaotic run terminates" `Quick
            test_server_chaos_run ] );
      ( "drill",
        [ Alcotest.test_case "kill -9 recovery" `Quick test_kill9_drill ] ) ]
