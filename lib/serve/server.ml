open Sync_platform
module Probe = Sync_trace.Probe

type addr = Unix_sock of string | Tcp of int

type config = {
  addr : addr;
  workers : int;
  accept_queue : int;
  bucket_rate : float;
  bucket_burst : int;
  grace_ms : int;
  default_deadline_ns : int64;
  chaos : Chaos.config option;
  service : Service.config;
}

let default_config addr =
  { addr;
    workers = 8;
    accept_queue = 64;
    bucket_rate = 2000.0;
    bucket_burst = 256;
    grace_ms = 2000;
    default_deadline_ns = 250_000_000L;
    chaos = None;
    service = Service.default_config }

type stats = {
  accepted : int;
  shed : int;
  served : int;
  overloaded : int;
  deadline_exceeded : int;
  bad_request : int;
  chaos_resets : int;
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  sockaddr : Unix.sockaddr;
  service : Service.t;
  buckets : (string * Bucket.t) list;
  (* bounded dispatch queue: slots = free depth, ready = queued conns *)
  conns : (int * Unix.file_descr) Queue.t;
  active : (int, Unix.file_descr) Hashtbl.t;  (* in-flight, per conn id *)
  q_lock : Mutex.t;
  slots : Semaphore.Counting.t;
  ready : Semaphore.Counting.t;
  draining : bool Atomic.t;
  live_workers : int Atomic.t;
  next_conn : int Atomic.t;
  (* stats *)
  s_accepted : int Atomic.t;
  s_shed : int Atomic.t;
  s_served : int Atomic.t;
  s_overloaded : int Atomic.t;
  s_deadline : int Atomic.t;
  s_bad : int Atomic.t;
  s_chaos : int Atomic.t;
  mutable acceptor : Thread.t option;
  mutable pool : Thread.t list;
}

let sockaddr t = t.sockaddr

let draining t = Atomic.get t.draining

let stats t =
  { accepted = Atomic.get t.s_accepted;
    shed = Atomic.get t.s_shed;
    served = Atomic.get t.s_served;
    overloaded = Atomic.get t.s_overloaded;
    deadline_exceeded = Atomic.get t.s_deadline;
    bad_request = Atomic.get t.s_bad;
    chaos_resets = Atomic.get t.s_chaos }

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* -- per-connection request loop ----------------------------------- *)

let reply_stat t (r : Wire.reply) =
  Atomic.incr t.s_served;
  match r with
  | Wire.Overloaded _ -> Atomic.incr t.s_overloaded
  | Wire.Deadline_exceeded -> Atomic.incr t.s_deadline
  | Wire.Bad_request _ -> Atomic.incr t.s_bad
  | Wire.Ok _ | Wire.Shutting_down -> ()

let bucket_for t problem = List.assoc_opt problem t.buckets

(* One request: decode, admit, execute against the service with the
   propagated deadline, reply. Returns [false] when the connection is
   done (EOF, torn frame, protocol error we cannot recover from). *)
let serve_request t chaos conn_id fd =
  match Chaos.on_read chaos (fun () -> Wire.read_frame fd) with
  | `Dropped -> true (* request lost inside the server; client times out *)
  | `Data (Error Wire.Timeout) ->
    (* Idle connection: the server-side receive timeout fired. Keep the
       connection unless a drain is in progress — the periodic timeout
       is what lets a drain reclaim workers parked on idle clients. *)
    not (Atomic.get t.draining)
  | `Data (Error (Wire.Eof | Wire.Truncated | Wire.Conn_error _)) -> false
  | `Data (Error (Wire.Oversized _)) ->
    (* Oversized advertisement: refuse and hang up — the stream cannot
       be resynchronized past an unread body. *)
    (try Chaos.on_write chaos fd (Wire.encode_reply (Wire.Bad_request "oversized frame"))
     with Unix.Unix_error _ -> ());
    Atomic.incr t.s_bad;
    false
  | `Data (Ok payload) -> (
    match Wire.decode_request payload with
    | Error msg ->
      reply_stat t (Wire.Bad_request msg);
      Chaos.on_write chaos fd (Wire.encode_reply (Wire.Bad_request msg));
      true
    | Ok (budget_ns, req) ->
      let budget_ns =
        if Int64.compare budget_ns 0L > 0 then budget_ns
        else t.cfg.default_deadline_ns
      in
      let deadline_end_ns = Int64.add (Clock.now_ns ()) budget_ns in
      let reply =
        if Atomic.get t.draining then Wire.Shutting_down
        else
          match bucket_for t (Wire.problem_of_req req) with
          | Some b when not (Bucket.try_take b) ->
            Wire.Overloaded { retry_after_ms = Bucket.retry_after_ms b }
          | _ ->
            (* Server-side request span: op label + one Op span per
               request, so a traced run shows the service tier next to
               the synchronizer's own acquire/wait spans. *)
            let t0 = Probe.now () in
            if t0 <> 0 then Probe.set_op (Wire.op_name req);
            let r = Service.handle t.service ~deadline_end_ns req in
            Probe.span Op ~site:"serve.request" ~since:t0 ~arg:conn_id;
            r
      in
      reply_stat t reply;
      Chaos.on_write chaos fd (Wire.encode_reply reply);
      (* After a drain-time reply the connection closes: clients see a
         typed answer, then EOF, and re-resolve elsewhere. *)
      not (Atomic.get t.draining))

let serve_conn t conn_id fd =
  let chaos =
    match t.cfg.chaos with
    | None -> Chaos.disabled
    | Some cfg -> Chaos.create cfg ~conn_id
  in
  let rec loop () = if serve_request t chaos conn_id fd then loop () in
  (match loop () with
  | () -> ()
  | exception Chaos.Injected_reset _ -> Atomic.incr t.s_chaos
  | exception Unix.Unix_error _ -> ());
  close_quiet fd

(* -- acceptor and workers ------------------------------------------ *)

let shed t fd =
  Atomic.incr t.s_shed;
  (try
     Wire.write_frame fd
       (Wire.encode_reply
          (Wire.Overloaded { retry_after_ms = 20 + (Atomic.get t.s_shed mod 30) }))
   with Unix.Unix_error _ -> ());
  close_quiet fd

let acceptor_loop t () =
  (* Closing an fd does NOT wake a thread already blocked in accept(2)
     on it, so a blocking accept would wedge the drain's join forever.
     Poll instead: select with a short timeout, re-checking the drain
     flag between waits; accept only fires when a connection is
     already pending. *)
  let rec loop () =
    if Atomic.get t.draining then ()
    else
      match Unix.select [ t.listener ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
      | [], _, _ -> loop ()
      | _ -> accept_one ()
  and accept_one () =
    match Unix.accept t.listener with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
      () (* listener closed: drain started *)
    | exception
        Unix.Unix_error ((Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      loop ()
    | fd, _peer ->
      if Atomic.get t.draining then begin
        close_quiet fd;
        loop ()
      end
      else begin
        Atomic.incr t.s_accepted;
        if Semaphore.Counting.try_p t.slots then begin
          Mutex.protect t.q_lock (fun () ->
              Queue.push (Atomic.fetch_and_add t.next_conn 1, fd) t.conns);
          Semaphore.Counting.v t.ready;
          loop ()
        end
        else begin
          (* Bounded accept queue full: shed with a typed reply. *)
          shed t fd;
          loop ()
        end
      end
  in
  loop ()

let worker_loop t () =
  let rec loop () =
    Semaphore.Counting.p t.ready;
    let next =
      Mutex.protect t.q_lock (fun () ->
          if Queue.is_empty t.conns then None else Some (Queue.pop t.conns))
    in
    match next with
    | None -> () (* poison: drain posted ready units with no conns *)
    | Some (conn_id, fd) ->
      Semaphore.Counting.v t.slots;
      (* A 100 ms receive timeout bounds how long this worker can sit
         on an idle connection — the drain poll interval. *)
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.1
       with Unix.Unix_error _ -> ());
      Mutex.protect t.q_lock (fun () -> Hashtbl.replace t.active conn_id fd);
      serve_conn t conn_id fd;
      Mutex.protect t.q_lock (fun () -> Hashtbl.remove t.active conn_id);
      loop ()
  in
  loop ();
  ignore (Atomic.fetch_and_add t.live_workers (-1))

(* -- lifecycle ------------------------------------------------------ *)

let bind_listener = function
  | Unix_sock path ->
    if Sys.file_exists path then (try Unix.unlink path with Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let sa = Unix.ADDR_UNIX path in
    Unix.bind fd sa;
    Unix.listen fd 128;
    (fd, sa)
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let sa = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
    Unix.bind fd sa;
    Unix.listen fd 128;
    let sa = Unix.getsockname fd in
    (fd, sa)

let start cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.accept_queue < 1 then
    invalid_arg "Server.start: accept_queue must be >= 1";
  let listener, sa = bind_listener cfg.addr in
  let t =
    { cfg;
      listener;
      sockaddr = sa;
      service = Service.create ~config:cfg.service ();
      buckets =
        List.map
          (fun p ->
            (p, Bucket.create ~rate_per_s:cfg.bucket_rate ~burst:cfg.bucket_burst))
          [ "queue"; "sched"; "timer"; "kv" ];
      conns = Queue.create ();
      active = Hashtbl.create 16;
      q_lock = Mutex.create ~name:"serve.dispatch" ();
      slots = Semaphore.Counting.create cfg.accept_queue;
      ready = Semaphore.Counting.create 0;
      draining = Atomic.make false;
      live_workers = Atomic.make cfg.workers;
      next_conn = Atomic.make 0;
      s_accepted = Atomic.make 0;
      s_shed = Atomic.make 0;
      s_served = Atomic.make 0;
      s_overloaded = Atomic.make 0;
      s_deadline = Atomic.make 0;
      s_bad = Atomic.make 0;
      s_chaos = Atomic.make 0;
      acceptor = None;
      pool = [] }
  in
  t.acceptor <- Some (Thread.create (acceptor_loop t) ());
  t.pool <- List.init cfg.workers (fun _ -> Thread.create (worker_loop t) ());
  t

let drain t =
  if Atomic.exchange t.draining true then true
  else begin
    (* 1. Stop accepting: close the listener, join the acceptor. *)
    close_quiet t.listener;
    (match t.cfg.addr with
    | Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ());
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    (* 2. Wake the whole pool in one batched post. Workers drain the
       queued connections first (those hold real ready units), then the
       poison units find an empty queue and each worker exits. *)
    Semaphore.Counting.v_n t.ready (List.length t.pool);
    (* 3. Grace period: wait for the pool to drain in-flight requests. *)
    let grace = Deadline.after_ns (Int64.of_int (t.cfg.grace_ms * 1_000_000)) in
    let rec await () =
      if Atomic.get t.live_workers = 0 then true
      else if Deadline.expired grace then false
      else begin
        Thread.delay 0.005;
        await ()
      end
    in
    let clean = await () in
    if not clean then begin
      (* 4. Escalation: a drain that outlives its grace period says how
         many workers are still live before it gives up. *)
      Printf.eprintf
        "bloom_serve: stuck drain (%d worker(s) still live after %d ms)\n%!"
        (Atomic.get t.live_workers) t.cfg.grace_ms;
      (* Force-close queued and in-flight connections so blocked reads
         fail and the stuck workers can unwind. *)
      Mutex.protect t.q_lock (fun () ->
          Queue.iter (fun (_, fd) -> close_quiet fd) t.conns;
          Queue.clear t.conns;
          Hashtbl.iter (fun _ fd -> close_quiet fd) t.active)
    end;
    Service.stop t.service;
    if clean then List.iter Thread.join t.pool;
    clean
  end
