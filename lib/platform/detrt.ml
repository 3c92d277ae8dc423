(* Deterministic cooperative runtime: virtual tasks (OCaml 5 effect
   fibers) multiplexed on the calling thread. Every scheduling decision —
   which runnable task proceeds, which waiter receives a released mutex —
   is delegated to a single [choose] callback, so a run is a pure function
   of the scenario and the choice sequence: record the choices and any
   interleaving replays byte-for-byte.

   Context-switch points are the blocking primitives themselves
   (mutex lock/unlock, condition wait/signal/broadcast, spawn, join,
   quiescence). Code between two primitive operations executes atomically,
   which is sound for the mechanism implementations because they keep all
   shared state under their low-level locks.

   The runtime optionally narrates a run to an [observe] callback: which
   decision is about to be taken, which task each quantum belongs to, and
   which synchronization object every primitive op touched, named by a
   packed int key. The DPOR explorer in [sync_detsched] derives its
   dependency relation from this stream. Events are built only when an
   observer is installed, so an unobserved run pays for none of them.
   Scheduler state is domain-local, so independent runs may proceed in
   parallel on separate domains (exploration shards).

   Dispatch is kept cheap because the explorer runs a scenario hundreds
   of thousands of times: the run queue and waiter queues are int arrays
   of task ids in FIFO order, each task's effect handlers are built once,
   and each primitive reads the domain-local state once. *)

exception Deadlock of string

exception Step_limit of int

(* Observable events. Object identities are per-run ordinals assigned at
   creation; creation order is itself schedule-determined, so ids are
   stable across replays of the same schedule. An [Op] carries the
   object as one packed int — the kind in the low two bits over the
   ordinal — computed once when the object is created. *)
module Obs = struct
  type objid =
    | Mutex_o of int
    | Cond_o of int
    | Task_o of int
    | Reg_o of int
    | Global

  type op =
    | Lock
    | Try_lock of bool
    | Unlock
    | Wait
    | Signal
    | Broadcast
    | Spawn
    | Join
    | Finish
    | Quiesce
    | Read
    | Write
    | Rmw of bool

  type event =
    | Choice of { kind : [ `Task | `Waiter ]; candidates : int array }
    | Sched of { tid : int; runnable : int array }
    | Op of { tid : int; obj : int; op : op }

  (* Injective for every id the runtime hands out (ordinals are >= -1,
     task ids >= 0), leaving 0 for the scheduler-global pseudo-object. *)
  let global = 0

  let task_key i = (4 * i) + 4

  let mutex_key i = (4 * i) + 5

  let cond_key i = (4 * i) + 6

  let reg_key i = (4 * i) + 7

  let decode k =
    if k = global then Global
    else
      match k land 3 with
      | 0 -> Task_o ((k asr 2) - 1)
      | 1 -> Mutex_o ((k - 5) asr 2)
      | 2 -> Cond_o ((k - 6) asr 2)
      | _ -> Reg_o ((k - 7) asr 2)

  let objid_to_string = function
    | Mutex_o i -> Printf.sprintf "m%d" i
    | Cond_o i -> Printf.sprintf "c%d" i
    | Task_o i -> Printf.sprintf "t%d" i
    | Reg_o i -> Printf.sprintf "r%d" i
    | Global -> "global"
end

type state = Unstarted | Runnable | Running | Blocked | Quiescing | Done

(* Task ids in FIFO order: the run queue, and each mutex's, condition's
   and register's waiters. Removal shifts the tail down, so the order of
   the rest never changes; the queues hold a handful of tasks. *)
type fifo = { mutable q : int array; mutable len : int }

let fifo () = { q = [||]; len = 0 }

let push f tid =
  if f.len = Array.length f.q then begin
    let q = Array.make (Int.max 4 (2 * f.len)) 0 in
    Array.blit f.q 0 q 0 f.len;
    f.q <- q
  end;
  f.q.(f.len) <- tid;
  f.len <- f.len + 1

let remove_at f i =
  let q = f.q in
  for j = i to f.len - 2 do
    q.(j) <- q.(j + 1)
  done;
  f.len <- f.len - 1

(* A deterministic mutex (the det half of the platform's [Mutex]
   facade). Ownership is handed off directly on unlock; the receiving
   waiter is picked by [choose]. *)
type mutex = {
  mutable owner : int; (* the holder's tid; -1 when free *)
  mwaiters : fifo;
  (* Packed [Obs] key, over ordinal -1 when created outside a run. *)
  mkey : int;
}

type task = {
  tid : int;
  tname : string;
  sched : sched;
  mutable state : state;
  mutable resume : resume;
  mutable t_exn : exn option;
  mutable joiners : task list;
  (* keys of the registers a task parked in [reg_await] watches *)
  mutable watch : int array;
  (* the mutex a task blocked in [mutex_lock] waits for; a stuck run
     follows these to name its circular wait *)
  mutable awaits : mutex option;
  (* [Some] of this task, built once: what the DLS's current task holds *)
  some : task option;
}

(* How a runnable task continues: by starting its body, or by resuming
   the fiber it suspended in one of the runtime's effects. *)
and resume =
  | Start of (unit -> unit)
  | Cont of (unit, unit) Effect.Deep.continuation
  | Gone

and sched = {
  choose : int array -> int;
  observe : (Obs.event -> unit) option;
  max_steps : int;
  dls : dls;
  mutable tasks : task array; (* by tid *)
  runq : fifo; (* deterministic FIFO of runnable tasks *)
  mutable quiescers : task list; (* newest first *)
  (* Tasks parked in [reg_await]; a write to a watched register makes
     them runnable again. *)
  regwaiters : fifo;
  (* Bumped by every register write: [reg_await]'s missed-write guard. *)
  mutable reg_epoch : int;
  mutable next_tid : int;
  mutable next_oid : int; (* object ordinal for [Obs] identities *)
  mutable steps : int;
  mutable first_exn : exn option;
  mutable limit_hit : bool;
}

(* Domain-local current run / current task (its tid; -1 between tasks),
   so exploration shards can drive independent runs concurrently on
   separate domains. *)
and dls = { mutable d_sched : sched option; mutable d_tid : int }

let dls_key : dls Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { d_sched = None; d_tid = -1 })

let dls () = Domain.DLS.get dls_key

(* The running task. Primitives read the DLS once, through this. *)
let[@inline] current d =
  if d.d_tid < 0 then None
  else match d.d_sched with Some s -> s.tasks.(d.d_tid).some | None -> None

let active () = Option.is_some (dls ()).d_sched

let in_fiber () = (dls ()).d_tid >= 0

(* The event is built only when an observer is installed. *)
let[@inline] emit_op t obj op =
  match t.sched.observe with
  | None -> ()
  | Some f -> f (Obs.Op { tid = t.tid; obj; op })

let fresh_oid () =
  match (dls ()).d_sched with
  | Some s ->
    let o = s.next_oid in
    s.next_oid <- o + 1;
    o
  | None -> -1

type _ Effect.t +=
  | Yield : unit Effect.t
  | Block : unit Effect.t
  | Quiesce : unit Effect.t

let make_runnable s t =
  t.state <- Runnable;
  push s.runq t.tid

(* Consult [choose] over [alts] (at least two candidates). *)
let choose_among s kind alts =
  (match s.observe with
  | None -> ()
  | Some f -> f (Obs.Choice { kind; candidates = alts }));
  let i = s.choose alts and n = Array.length alts in
  if i < 0 || i >= n then
    invalid_arg
      (Printf.sprintf "Detrt: strategy chose %d of %d alternatives" i n);
  i

(* Pick the next runnable task and transfer control to it. Returns only
   when no progress is possible anymore (all done, deadlock, or the step
   limit tripped); the caller's stack then unwinds through the suspended
   handler frames. *)
let rec next s =
  let rq = s.runq in
  (match s.quiescers with
  | _ :: _ as qs when rq.len = 0 ->
    s.quiescers <- [];
    List.iter (make_runnable s) (List.rev qs)
  | _ -> ());
  let n = rq.len in
  if n = 0 then () (* run loop over: [run] inspects task states afterwards *)
  else begin
    s.steps <- s.steps + 1;
    if s.steps > s.max_steps then s.limit_hit <- true
    else begin
      let idx =
        if n = 1 then begin
          (match s.observe with
          | None -> ()
          | Some f ->
            let tid = rq.q.(0) in
            f (Obs.Sched { tid; runnable = [| tid |] }));
          0
        end
        else begin
          let tids = Array.sub rq.q 0 n in
          let i = choose_among s `Task tids in
          (match s.observe with
          | None -> ()
          | Some f -> f (Obs.Sched { tid = tids.(i); runnable = tids }));
          i
        end
      in
      let t = s.tasks.(rq.q.(idx)) in
      remove_at rq idx;
      t.state <- Running;
      s.dls.d_tid <- t.tid;
      match t.resume with
      | Cont k -> Effect.Deep.continue k ()
      | Start body ->
        t.resume <- Gone;
        exec s t body
      | Gone -> failwith "Detrt: runnable task has no continuation"
    end
  end

(* Install the scheduler's effect handler around a task body and start
   it. Called from within [next], i.e. on the current handler chain. The
   handlers are built once per task. *)
and exec s t body =
  let open Effect.Deep in
  let finish exn_opt =
    t.state <- Done;
    t.t_exn <- exn_opt;
    (match (exn_opt, s.first_exn) with
    | Some e, None -> s.first_exn <- Some e
    | _ -> ());
    emit_op t (Obs.task_key t.tid) Obs.Finish;
    List.iter (make_runnable s) (List.rev t.joiners);
    t.joiners <- [];
    s.dls.d_tid <- -1;
    next s
  in
  let suspend (k : (unit, unit) continuation) =
    t.resume <- Cont k;
    s.dls.d_tid <- -1;
    next s
  in
  let on_yield =
    Some
      (fun k ->
        make_runnable s t;
        suspend k)
  and on_block =
    Some
      (fun k ->
        t.state <- Blocked;
        suspend k)
  and on_quiesce =
    Some
      (fun k ->
        t.state <- Quiescing;
        s.quiescers <- t :: s.quiescers;
        suspend k)
  in
  match_with body ()
    { retc = (fun () -> finish None);
      exnc = (fun e -> finish (Some e));
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Yield -> on_yield
          | Block -> on_block
          | Quiesce -> on_quiesce
          | _ -> None) }

let new_task s ~tid ~tname resume =
  let rec t =
    { tid; tname; sched = s; state = Unstarted; resume; t_exn = None;
      joiners = []; watch = [||]; awaits = None; some = Some t }
  in
  if tid >= Array.length s.tasks then begin
    let a = Array.make (Int.max 8 (2 * Array.length s.tasks)) t in
    Array.blit s.tasks 0 a 0 (Array.length s.tasks);
    s.tasks <- a
  end;
  s.tasks.(tid) <- t;
  t

let spawn ?name body =
  let d = dls () in
  match (d.d_sched, current d) with
  | None, _ -> failwith "Detrt: no deterministic run in progress"
  | Some _, None ->
    failwith "Detrt.spawn: must be called from inside the deterministic run"
  | Some s, Some me ->
    let tid = s.next_tid in
    s.next_tid <- tid + 1;
    let tname =
      match name with Some n -> n | None -> Printf.sprintf "task-%d" tid
    in
    let t = new_task s ~tid ~tname (Start body) in
    make_runnable s t;
    emit_op me Obs.global Obs.Spawn;
    (* spawning is itself a scheduling point *)
    Effect.perform Yield;
    t

let join t =
  match current (dls ()) with
  | None ->
    if t.state <> Done then
      failwith "Detrt.join: task still live after the deterministic run"
  | Some me ->
    emit_op me (Obs.task_key t.tid) Obs.Join;
    if t.state <> Done then begin
      t.joiners <- me :: t.joiners;
      Effect.perform Block
    end

let yield () = if in_fiber () then Effect.perform Yield

(* A backend-agnostic "give someone else a chance": the det yield inside
   a run, the preemptive one outside. Used by the timed-wait polling
   loops, which exist in both worlds. *)
let relax () = if in_fiber () then Effect.perform Yield else Thread.yield ()

let self_info () =
  match current (dls ()) with Some t -> Some (t.tid, t.tname) | None -> None

let () =
  Fault.set_task_provider (fun () -> Option.map fst (self_info ()));
  Sync_trace.Probe.set_task_provider (fun () -> Option.map fst (self_info ()))

let await_quiescence () =
  match current (dls ()) with
  | Some t ->
    emit_op t Obs.global Obs.Quiesce;
    Effect.perform Quiesce
  | None -> failwith "Detrt.await_quiescence: outside a deterministic run"

let task_tid t = t.tid

let task_name t = t.tname

(* ------------------------------------------------------------------ *)
(* Deterministic mutexes and condition variables (the det halves of the
   platform's [Mutex]/[Condition] facades). *)

type cond = { cwaiters : fifo; ckey : int }

let mutex () =
  { owner = -1; mwaiters = fifo (); mkey = Obs.mutex_key (fresh_oid ()) }

let cond () = { cwaiters = fifo (); ckey = Obs.cond_key (fresh_oid ()) }

(* Remove a waiter from a non-empty queue, the pick made by [choose]. *)
let pick_waiter s f =
  let idx =
    if f.len = 1 then 0 else choose_among s `Waiter (Array.sub f.q 0 f.len)
  in
  let w = s.tasks.(f.q.(idx)) in
  remove_at f idx;
  w

let mutex_lock m =
  match current (dls ()) with
  | None ->
    (* Outside a run (e.g. post-run trace inspection): everything is
       quiesced, locking is a no-op as long as nobody holds the mutex. *)
    if m.owner >= 0 then
      failwith "Detrt: mutex held after the deterministic run"
  | Some t ->
    Effect.perform Yield;
    (* still the same task: Yield re-enqueues and resumes us *)
    emit_op t m.mkey Obs.Lock;
    if m.owner < 0 then m.owner <- t.tid
    else begin
      t.awaits <- Some m;
      push m.mwaiters t.tid;
      Effect.perform Block;
      (* ownership was transferred to us by the releasing task *)
      t.awaits <- None
    end

(* Non-blocking acquire. The preceding Yield makes the attempt itself a
   recorded scheduling point, so the outcome is a pure function of the
   schedule and replays deterministically. *)
let mutex_try_lock m =
  match current (dls ()) with
  | None -> failwith "Detrt: try_lock outside the deterministic run"
  | Some t ->
    Effect.perform Yield;
    let ok = m.owner < 0 in
    if ok then m.owner <- t.tid;
    (match t.sched.observe with
    | None -> ()
    | Some f -> f (Obs.Op { tid = t.tid; obj = m.mkey; op = Obs.Try_lock ok }));
    ok

(* Release [m], handing ownership to a chosen waiter if any. Shared by
   [mutex_unlock] and [cond_wait]. *)
let release_mutex s m =
  if m.mwaiters.len = 0 then m.owner <- -1
  else begin
    let w = pick_waiter s m.mwaiters in
    m.owner <- w.tid;
    make_runnable s w
  end

let mutex_unlock m =
  match current (dls ()) with
  | None -> ()
  | Some t ->
    if m.owner <> t.tid then
      failwith "Detrt: mutex unlocked by a task that does not hold it";
    emit_op t m.mkey Obs.Unlock;
    release_mutex t.sched m;
    Effect.perform Yield

let cond_wait c m =
  match current (dls ()) with
  | None -> failwith "Detrt: Condition.wait outside the deterministic run"
  | Some t ->
    if m.owner <> t.tid then
      failwith "Detrt: Condition.wait without holding the mutex";
    emit_op t c.ckey Obs.Wait;
    emit_op t m.mkey Obs.Unlock;
    (* Atomic release-and-park: no scheduling point between enqueueing
       ourselves and releasing the mutex, so signals cannot be lost. *)
    push c.cwaiters t.tid;
    release_mutex t.sched m;
    Effect.perform Block;
    (* Signalled: re-acquire like any newcomer (Mesa-style, matching the
       stdlib [Condition] contract the mechanisms are written against). *)
    mutex_lock m

let cond_signal c =
  match current (dls ()) with
  | None ->
    if c.cwaiters.len > 0 then
      failwith "Detrt: Condition.signal with waiters after the run"
  | Some t ->
    let s = t.sched in
    emit_op t c.ckey Obs.Signal;
    if c.cwaiters.len > 0 then make_runnable s (pick_waiter s c.cwaiters);
    Effect.perform Yield

let cond_broadcast c =
  match current (dls ()) with
  | None ->
    if c.cwaiters.len > 0 then
      failwith "Detrt: Condition.broadcast with waiters after the run"
  | Some t ->
    let s = t.sched in
    emit_op t c.ckey Obs.Broadcast;
    let f = c.cwaiters in
    for i = 0 to f.len - 1 do
      make_runnable s s.tasks.(f.q.(i))
    done;
    f.len <- 0;
    Effect.perform Yield

(* ------------------------------------------------------------------ *)
(* Deterministic integer registers (the det face of [Sync_prims.Regs]):
   every access is a scheduling point, so the class-restricted lock and
   semaphore algorithms — whose steps ARE register accesses — expose
   each interleaving to the explorer. [reg_await] is the deterministic
   [Regs.await]: instead of spinning (which would make every schedule
   tree infinite), the task parks and a write to any watched register
   wakes it; a lost wakeup therefore surfaces as a Detrt deadlock, which
   is exactly what the E26 scenarios assert against. *)

type reg = { mutable rval : int; rkey : int (* packed [Obs] key *) }

let reg v = { rval = v; rkey = Obs.reg_key (fresh_oid ()) }

(* Make runnable, in parking order, every waiter watching [rkey]. *)
let reg_wake s rkey =
  let f = s.regwaiters in
  if f.len > 0 then begin
    let kept = ref 0 in
    for i = 0 to f.len - 1 do
      let t = s.tasks.(f.q.(i)) in
      if Array.mem rkey t.watch then make_runnable s t
      else begin
        f.q.(!kept) <- t.tid;
        incr kept
      end
    done;
    f.len <- !kept
  end

let reg_get r =
  match current (dls ()) with
  | None -> r.rval (* post-run inspection *)
  | Some t ->
    Effect.perform Yield;
    emit_op t r.rkey Obs.Read;
    r.rval

let reg_write s r v =
  r.rval <- v;
  s.reg_epoch <- s.reg_epoch + 1;
  reg_wake s r.rkey

let reg_set r v =
  match current (dls ()) with
  | None -> r.rval <- v
  | Some t ->
    Effect.perform Yield;
    emit_op t r.rkey Obs.Write;
    reg_write t.sched r v

let reg_cas r seen v =
  match current (dls ()) with
  | None -> failwith "Detrt: reg_cas outside the deterministic run"
  | Some t ->
    Effect.perform Yield;
    let ok = r.rval = seen in
    (match t.sched.observe with
    | None -> ()
    | Some f -> f (Obs.Op { tid = t.tid; obj = r.rkey; op = Obs.Rmw ok }));
    if ok then reg_write t.sched r v;
    ok

let reg_faa r n =
  match current (dls ()) with
  | None -> failwith "Detrt: reg_faa outside the deterministic run"
  | Some t ->
    Effect.perform Yield;
    let old = r.rval in
    emit_op t r.rkey (Obs.Rmw true);
    reg_write t.sched r (old + n);
    old

let reg_await ~watch pred =
  match current (dls ()) with
  | None ->
    if not (pred ()) then
      failwith "Detrt.reg_await: predicate false outside the run"
  | Some t ->
    let s = t.sched in
    let rec loop () =
      (* Sampled with no scheduling point between here and the park
         decision except [pred]'s own reads: a write landing during the
         check bumps the epoch and forces a re-check, so a waiter never
         parks having missed the write that would have satisfied it. *)
      let e0 = s.reg_epoch in
      if not (pred ()) then begin
        if s.reg_epoch <> e0 then loop ()
        else begin
          t.watch <- Array.map (fun r -> r.rkey) watch;
          push s.regwaiters t.tid;
          Effect.perform Block;
          loop ()
        end
      end
    in
    loop ()

(* ------------------------------------------------------------------ *)

(* The circular wait of a stuck run: from each task in tid order, follow
   the mutex it waits for to that mutex's owner until the walk returns
   to its start (a cycle), leaves the mutexes, or has taken more hops
   than there are tasks. Starting at the lowest tid on any cycle gives
   every schedule of one DPOR class the same text:
   ["a -> m1 -> b -> m0 -> a"]. *)
let wait_cycle s =
  let n = s.next_tid in
  let rec walk start t hops acc =
    match t.awaits with
    | Some m when m.owner >= 0 && hops < n ->
      let acc = (t, m) :: acc and o = s.tasks.(m.owner) in
      if o == start then Some (List.rev acc) else walk start o (hops + 1) acc
    | _ -> None
  in
  let rec from i =
    if i >= n then None
    else
      match walk s.tasks.(i) s.tasks.(i) 0 [] with
      | Some c -> Some c
      | None -> from (i + 1)
  in
  Option.map
    (fun c ->
      let first = (fst (List.hd c)).tname in
      String.concat " -> "
        (List.concat_map
           (fun (t, m) -> [ t.tname; Obs.objid_to_string (Obs.decode m.mkey) ])
           c
        @ [ first ]))
    (from 0)

let run ?(max_steps = 200_000) ?observe ~choose body =
  let d = dls () in
  if active () then failwith "Detrt.run: deterministic runs do not nest";
  let s =
    { choose; observe; max_steps; dls = d; tasks = [||]; runq = fifo ();
      quiescers = []; regwaiters = fifo (); reg_epoch = 0; next_tid = 0;
      next_oid = 0; steps = 0; first_exn = None; limit_hit = false }
  in
  d.d_sched <- Some s;
  Sync_trace.Probe.virtual_run @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      d.d_sched <- None;
      d.d_tid <- -1)
    (fun () ->
      let main = new_task s ~tid:0 ~tname:"main" Gone in
      s.next_tid <- 1;
      main.state <- Running;
      d.d_tid <- 0;
      exec s main body;
      (* The handler chain has fully unwound: classify the outcome. *)
      (match s.first_exn with Some e -> raise e | None -> ());
      if s.limit_hit then raise (Step_limit s.max_steps);
      let stuck =
        List.filter
          (fun t -> t.state <> Done)
          (Array.to_list (Array.sub s.tasks 0 s.next_tid))
      in
      if stuck <> [] then begin
        let cycle =
          match wait_cycle s with
          | Some c -> "; wait-for cycle: " ^ c
          | None -> ""
        in
        raise
          (Deadlock
             (Printf.sprintf "deadlock: %d task(s) blocked forever: %s%s"
                (List.length stuck)
                (String.concat ", "
                   (List.map
                      (fun t -> Printf.sprintf "%s(#%d)" t.tname t.tid)
                      stuck))
                cycle))
      end;
      s.steps)
