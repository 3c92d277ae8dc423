open Sync_platform

type config = { queue_capacity : int; tracks : int; tick_ms : int }

let default_config = { queue_capacity = 64; tracks = 256; tick_ms = 2 }

(* Bounded buffer as a service: the classic two-semaphore split, strong
   (FCFS) so grants follow arrival order under overload. *)
type queue = {
  q_lock : Mutex.t;
  q_items : string Queue.t;
  q_slots : Semaphore.Counting.t;
  q_avail : Semaphore.Counting.t;
}

(* One disk head; the service time models the seek distance. *)
type sched = {
  s_head : Mutex.t;
  s_tracks : int;
  mutable s_pos : int;
}

(* Virtual ticks under a mutex; the ticker broadcasts every advance so
   sleepers (Condition.await_for, deadline-bounded) re-check. *)
type timer = {
  t_lock : Mutex.t;
  t_cond : Condition.t;
  mutable t_ticks : int;
  mutable t_stop : bool;
  mutable t_thread : Thread.t option;
}

(* Readers-writers as a KV store: condition-based RW lock with timed
   acquisition on both sides. *)
type kv = {
  k_lock : Mutex.t;
  k_cond : Condition.t;
  mutable k_readers : int;
  mutable k_writer : bool;
  k_tbl : (string, string) Hashtbl.t;
}

type t = {
  cfg : config;
  queue : queue;
  sched : sched;
  timer : timer;
  kv : kv;
  stopped : bool Atomic.t;
}

let create ?(config = default_config) () =
  let timer =
    { t_lock = Mutex.create ~name:"serve.timer" ();
      t_cond = Condition.create ();
      t_ticks = 0;
      t_stop = false;
      t_thread = None }
  in
  let t =
    { cfg = config;
      queue =
        { q_lock = Mutex.create ~name:"serve.queue" ();
          q_items = Queue.create ();
          q_slots = Semaphore.Counting.create config.queue_capacity;
          q_avail = Semaphore.Counting.create 0 };
      sched =
        { s_head = Mutex.create ~name:"serve.head" ();
          s_tracks = config.tracks;
          s_pos = 0 };
      timer;
      kv =
        { k_lock = Mutex.create ~name:"serve.kv" ();
          k_cond = Condition.create ();
          k_readers = 0;
          k_writer = false;
          k_tbl = Hashtbl.create 64 };
      stopped = Atomic.make false }
  in
  let ticker () =
    let period = float_of_int config.tick_ms /. 1e3 in
    let rec loop () =
      Thread.delay period;
      let continue =
        Mutex.protect timer.t_lock (fun () ->
            if timer.t_stop then false
            else begin
              timer.t_ticks <- timer.t_ticks + 1;
              Condition.broadcast timer.t_cond;
              true
            end)
      in
      if continue then loop ()
    in
    loop ()
  in
  timer.t_thread <- Some (Thread.create ticker ());
  t

let queue_length t =
  Mutex.protect t.queue.q_lock (fun () -> Queue.length t.queue.q_items)

let remaining_ns ~deadline_end_ns = Int64.sub deadline_end_ns (Clock.now_ns ())

(* -- per-problem handlers ------------------------------------------ *)

let q_put t ~deadline_end_ns item =
  let rem = remaining_ns ~deadline_end_ns in
  if not (Semaphore.Counting.acquire_for t.queue.q_slots ~timeout_ns:rem) then
    Wire.Deadline_exceeded
  else begin
    Mutex.protect t.queue.q_lock (fun () ->
        Queue.push item t.queue.q_items);
    Semaphore.Counting.v t.queue.q_avail;
    Wire.Ok ""
  end

let q_get t ~deadline_end_ns =
  let rem = remaining_ns ~deadline_end_ns in
  if not (Semaphore.Counting.acquire_for t.queue.q_avail ~timeout_ns:rem) then
    Wire.Deadline_exceeded
  else begin
    let item =
      Mutex.protect t.queue.q_lock (fun () -> Queue.pop t.queue.q_items)
    in
    Semaphore.Counting.v t.queue.q_slots;
    Wire.Ok item
  end

let s_seek t ~deadline_end_ns track =
  if track < 0 || track >= t.sched.s_tracks then
    Wire.Bad_request
      (Printf.sprintf "seek: track %d outside [0, %d)" track t.sched.s_tracks)
  else
    let rem = remaining_ns ~deadline_end_ns in
    if not (Mutex.try_lock_for t.sched.s_head ~timeout_ns:rem) then
      Wire.Deadline_exceeded
    else begin
      let dist = abs (track - t.sched.s_pos) in
      (* Seek time: a bounded spin proportional to the distance — enough
         to make head possession a real contended resource. *)
      let sink = ref 0 in
      for i = 1 to dist * 20 do
        sink := !sink + i
      done;
      ignore !sink;
      t.sched.s_pos <- track;
      Mutex.unlock t.sched.s_head;
      Wire.Ok (string_of_int dist)
    end

let t_sleep t ~deadline_end_ns ticks =
  if ticks < 0 then Wire.Bad_request "sleep: negative ticks"
  else if ticks = 0 then Wire.Ok "0"
  else begin
    let tm = t.timer in
    let rem = remaining_ns ~deadline_end_ns in
    let deadline = Deadline.after_ns rem in
    Mutex.protect tm.t_lock (fun () ->
        let target = tm.t_ticks + ticks in
        if
          not
            (Condition.await_for tm.t_cond tm.t_lock ~deadline (fun () ->
                 tm.t_stop || tm.t_ticks >= target))
        then Wire.Deadline_exceeded
        else if tm.t_stop then Wire.Shutting_down
        else Wire.Ok (string_of_int tm.t_ticks))
  end

(* RW lock, readers share / writer excludes, both sides timed. Releases
   broadcast: waiting writers and readers all re-check. *)
let kv_read_acquire k ~deadline =
  Mutex.protect k.k_lock (fun () ->
      Condition.await_for k.k_cond k.k_lock ~deadline (fun () ->
          not k.k_writer)
      && (k.k_readers <- k.k_readers + 1; true))

let kv_read_release k =
  Mutex.protect k.k_lock (fun () ->
      k.k_readers <- k.k_readers - 1;
      if k.k_readers = 0 then Condition.broadcast k.k_cond)

let kv_write_acquire k ~deadline =
  Mutex.protect k.k_lock (fun () ->
      Condition.await_for k.k_cond k.k_lock ~deadline (fun () ->
          (not k.k_writer) && k.k_readers = 0)
      && (k.k_writer <- true; true))

let kv_write_release k =
  Mutex.protect k.k_lock (fun () ->
      k.k_writer <- false;
      Condition.broadcast k.k_cond)

let k_get t ~deadline_end_ns key =
  let deadline = Deadline.after_ns (remaining_ns ~deadline_end_ns) in
  if not (kv_read_acquire t.kv ~deadline) then Wire.Deadline_exceeded
  else begin
    let v = Hashtbl.find_opt t.kv.k_tbl key in
    kv_read_release t.kv;
    Wire.Ok (Option.value v ~default:"")
  end

let k_put t ~deadline_end_ns key value =
  let deadline = Deadline.after_ns (remaining_ns ~deadline_end_ns) in
  if not (kv_write_acquire t.kv ~deadline) then Wire.Deadline_exceeded
  else begin
    Hashtbl.replace t.kv.k_tbl key value;
    kv_write_release t.kv;
    Wire.Ok ""
  end

let handle t ~deadline_end_ns (req : Wire.req) =
  if Atomic.get t.stopped then Wire.Shutting_down
  else if req <> Wire.Ping && Int64.compare (remaining_ns ~deadline_end_ns) 0L <= 0
  then
    (* Fast reject: the budget is gone before any synchronizer is
       touched (the timeout-0 contract the platform edge tests pin). *)
    Wire.Deadline_exceeded
  else
    match req with
    | Wire.Ping -> Wire.Ok "pong"
    | Wire.Q_put item -> q_put t ~deadline_end_ns item
    | Wire.Q_get -> q_get t ~deadline_end_ns
    | Wire.S_seek track -> s_seek t ~deadline_end_ns track
    | Wire.T_sleep ticks -> t_sleep t ~deadline_end_ns ticks
    | Wire.K_get key -> k_get t ~deadline_end_ns key
    | Wire.K_put (key, value) -> k_put t ~deadline_end_ns key value

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Mutex.protect t.timer.t_lock (fun () ->
        t.timer.t_stop <- true;
        Condition.broadcast t.timer.t_cond);
    match t.timer.t_thread with
    | Some th -> Thread.join th
    | None -> ()
  end
