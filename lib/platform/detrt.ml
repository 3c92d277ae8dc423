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
   which synchronization object every primitive op touched. The DPOR
   explorer in [sync_detsched] derives its dependency relation from this
   stream. Scheduler state is domain-local, so independent runs may
   proceed in parallel on separate domains (exploration shards). *)

exception Deadlock of string

exception Step_limit of int

(* Observable events. Object identities are per-run ordinals assigned at
   creation; creation order is itself schedule-determined, so ids are
   stable across replays of the same schedule. *)
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
    | Op of { tid : int; obj : objid; op : op }

  let objid_to_string = function
    | Mutex_o i -> Printf.sprintf "m%d" i
    | Cond_o i -> Printf.sprintf "c%d" i
    | Task_o i -> Printf.sprintf "t%d" i
    | Reg_o i -> Printf.sprintf "r%d" i
    | Global -> "global"
end

type state = Unstarted | Runnable | Running | Blocked | Quiescing | Done

type task = {
  tid : int;
  tname : string;
  mutable state : state;
  (* The resumption: for Unstarted tasks, starting the body; otherwise
     continuing a captured fiber. Uniformly a thunk so that effects with
     differently-typed continuations share one queue. *)
  mutable resume : (unit -> unit) option;
  mutable t_exn : exn option;
  mutable joiners : task list;
}

type sched = {
  choose : int array -> int;
  observe : (Obs.event -> unit) option;
  max_steps : int;
  mutable runq : task list; (* deterministic FIFO of runnable tasks *)
  mutable quiescers : task list;
  (* Tasks parked in [reg_await], with the object ordinals they watch;
     a write to a watched register makes them runnable again. *)
  mutable regwaiters : (task * int list) list;
  (* Bumped by every register write: [reg_await]'s missed-write guard. *)
  mutable reg_epoch : int;
  mutable all : task list; (* spawn order, newest first *)
  mutable next_tid : int;
  mutable next_oid : int; (* object ordinal for [Obs] identities *)
  mutable steps : int;
  mutable first_exn : exn option;
  mutable limit_hit : bool;
}

(* Domain-local current run / current task, so exploration shards can
   drive independent runs concurrently on separate domains. *)
type dls = { mutable d_sched : sched option; mutable d_task : task option }

let dls_key : dls Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { d_sched = None; d_task = None })

let dls () = Domain.DLS.get dls_key

let active () = Option.is_some (dls ()).d_sched

let in_fiber () = Option.is_some (dls ()).d_task

let self () =
  match (dls ()).d_task with
  | Some t -> t
  | None -> failwith "Detrt: primitive used outside a running task"

let the_sched () =
  match (dls ()).d_sched with
  | Some s -> s
  | None -> failwith "Detrt: no deterministic run in progress"

let[@inline] emit s ev = match s.observe with None -> () | Some f -> f ev

let emit_op s obj op =
  match s.observe with
  | None -> ()
  | Some f ->
    let tid = match (dls ()).d_task with Some t -> t.tid | None -> -1 in
    f (Obs.Op { tid; obj; op })

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
  s.runq <- s.runq @ [ t ]

(* Pick the next runnable task and transfer control to it. Returns only
   when no progress is possible anymore (all done, deadlock, or the step
   limit tripped); the caller's stack then unwinds through the suspended
   handler frames. *)
let next s =
  if s.runq = [] && s.quiescers <> [] then begin
    let qs = s.quiescers in
    s.quiescers <- [];
    List.iter (make_runnable s) qs
  end;
  match s.runq with
  | [] -> () (* run loop over: [run] inspects task states afterwards *)
  | q ->
    s.steps <- s.steps + 1;
    if s.steps > s.max_steps then s.limit_hit <- true
    else begin
      let n = List.length q in
      let idx =
        if n = 1 then begin
          (match s.observe with
          | None -> ()
          | Some f ->
            let t = List.hd q in
            f (Obs.Sched { tid = t.tid; runnable = [| t.tid |] }));
          0
        end
        else begin
          let tids = Array.of_list (List.map (fun t -> t.tid) q) in
          emit s (Obs.Choice { kind = `Task; candidates = tids });
          let i = s.choose tids in
          if i < 0 || i >= n then
            invalid_arg
              (Printf.sprintf "Detrt: strategy chose %d of %d alternatives" i
                 n)
          else begin
            emit s (Obs.Sched { tid = tids.(i); runnable = tids });
            i
          end
        end
      in
      let t = List.nth q idx in
      s.runq <- List.filteri (fun i _ -> i <> idx) q;
      let k =
        match t.resume with
        | Some k ->
          t.resume <- None;
          k
        | None -> failwith "Detrt: runnable task has no continuation"
      in
      t.state <- Running;
      (dls ()).d_task <- Some t;
      k ()
    end

let choose_index s alts =
  let n = Array.length alts in
  if n = 1 then 0
  else begin
    emit s (Obs.Choice { kind = `Waiter; candidates = alts });
    let i = s.choose alts in
    if i < 0 || i >= n then
      invalid_arg
        (Printf.sprintf "Detrt: strategy chose %d of %d alternatives" i n)
    else i
  end

(* Install the scheduler's effect handler around a task body and start
   it. Called from within [next], i.e. on the current handler chain. *)
let exec s t body =
  let open Effect.Deep in
  let finish exn_opt =
    t.state <- Done;
    t.t_exn <- exn_opt;
    (match (exn_opt, s.first_exn) with
    | Some e, None -> s.first_exn <- Some e
    | _ -> ());
    (match s.observe with
    | None -> ()
    | Some f -> f (Obs.Op { tid = t.tid; obj = Obs.Task_o t.tid; op = Obs.Finish }));
    List.iter (make_runnable s) (List.rev t.joiners);
    t.joiners <- [];
    (dls ()).d_task <- None;
    next s
  in
  match_with body ()
    { retc = (fun () -> finish None);
      exnc = (fun e -> finish (Some e));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some
              (fun (k : (a, _) continuation) ->
                t.resume <- Some (fun () -> continue k ());
                make_runnable s t;
                (dls ()).d_task <- None;
                next s)
          | Block ->
            Some
              (fun (k : (a, _) continuation) ->
                t.resume <- Some (fun () -> continue k ());
                t.state <- Blocked;
                (dls ()).d_task <- None;
                next s)
          | Quiesce ->
            Some
              (fun (k : (a, _) continuation) ->
                t.resume <- Some (fun () -> continue k ());
                t.state <- Quiescing;
                s.quiescers <- s.quiescers @ [ t ];
                (dls ()).d_task <- None;
                next s)
          | _ -> None) }

let spawn ?name body =
  let s = the_sched () in
  if not (in_fiber ()) then
    failwith "Detrt.spawn: must be called from inside the deterministic run";
  let tid = s.next_tid in
  s.next_tid <- tid + 1;
  let tname =
    match name with Some n -> n | None -> Printf.sprintf "task-%d" tid
  in
  let t =
    { tid; tname; state = Unstarted; resume = None; t_exn = None;
      joiners = [] }
  in
  t.resume <- Some (fun () -> exec s t body);
  s.all <- t :: s.all;
  make_runnable s t;
  emit_op s Obs.Global Obs.Spawn;
  (* spawning is itself a scheduling point *)
  Effect.perform Yield;
  t

let join t =
  match (dls ()).d_task with
  | None ->
    if t.state <> Done then
      failwith "Detrt.join: task still live after the deterministic run"
  | Some me ->
    emit_op (the_sched ()) (Obs.Task_o t.tid) Obs.Join;
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
  match (dls ()).d_task with Some t -> Some (t.tid, t.tname) | None -> None

let () =
  Deadlock.set_task_provider self_info;
  Fault.set_task_provider (fun () -> Option.map fst (self_info ()));
  Sync_trace.Probe.set_task_provider (fun () -> Option.map fst (self_info ()))

let await_quiescence () =
  if in_fiber () then begin
    emit_op (the_sched ()) Obs.Global Obs.Quiesce;
    Effect.perform Quiesce
  end
  else failwith "Detrt.await_quiescence: outside a deterministic run"

let task_tid t = t.tid

let task_name t = t.tname

(* ------------------------------------------------------------------ *)
(* Deterministic mutexes and condition variables (the det halves of the
   platform's [Mutex]/[Condition] facades). Ownership is handed off
   directly on unlock; the receiving waiter is picked by [choose].      *)

type mutex = {
  mutable owner : task option;
  mutable mwaiters : task list;
  (* Observation ordinal; -1 when created outside a run. *)
  moid : int;
  (* Watchdog resource id; -1 when the watchdog was off at creation
     (instrumentation is then skipped for this mutex). *)
  mid : int;
}

type cond = { mutable cwaiters : task list; coid : int }

let mutex () =
  { owner = None; mwaiters = []; moid = fresh_oid ();
    mid = (if Deadlock.enabled () then Deadlock.register ~kind:"mutex" ()
           else -1) }

let cond () = { cwaiters = []; coid = fresh_oid () }

let pick_waiter s waiters =
  match waiters with
  | [] -> assert false
  | [ w ] -> (w, [])
  | ws ->
    let arr = Array.of_list ws in
    let idx = choose_index s (Array.map (fun t -> t.tid) arr) in
    let w = arr.(idx) in
    (w, List.filteri (fun i _ -> i <> idx) ws)

let mutex_lock m =
  match (dls ()).d_task with
  | None ->
    (* Outside a run (e.g. post-run trace inspection): everything is
       quiesced, locking is a no-op as long as nobody holds the mutex. *)
    if m.owner <> None then
      failwith "Detrt: mutex held after the deterministic run"
  | Some _ ->
    Effect.perform Yield;
    (* still the same task: Yield re-enqueues and resumes us *)
    let t = self () in
    emit_op (the_sched ()) (Obs.Mutex_o m.moid) Obs.Lock;
    (match m.owner with
    | None ->
      m.owner <- Some t;
      if m.mid >= 0 then Deadlock.acquired m.mid
    | Some _ ->
      if m.mid >= 0 then Deadlock.blocked m.mid;
      m.mwaiters <- m.mwaiters @ [ t ];
      Effect.perform Block;
      (* ownership was transferred to us by the releasing task *)
      if m.mid >= 0 then Deadlock.acquired m.mid)

(* Non-blocking acquire. The preceding Yield makes the attempt itself a
   recorded scheduling point, so the outcome is a pure function of the
   schedule and replays deterministically. *)
let mutex_try_lock m =
  match (dls ()).d_task with
  | None -> failwith "Detrt: try_lock outside the deterministic run"
  | Some _ ->
    Effect.perform Yield;
    let t = self () in
    let ok =
      match m.owner with
      | None ->
        m.owner <- Some t;
        if m.mid >= 0 then Deadlock.acquired m.mid;
        true
      | Some _ -> false
    in
    emit_op (the_sched ()) (Obs.Mutex_o m.moid) (Obs.Try_lock ok);
    ok

(* Release [m], handing ownership to a chosen waiter if any. Shared by
   [mutex_unlock] and [cond_wait]. *)
let release_mutex s m =
  match m.mwaiters with
  | [] -> m.owner <- None
  | ws ->
    let w, rest = pick_waiter s ws in
    m.mwaiters <- rest;
    m.owner <- Some w;
    make_runnable s w

let holds m t = match m.owner with Some o -> o == t | None -> false

let mutex_unlock m =
  match (dls ()).d_task with
  | None -> ()
  | Some t ->
    if not (holds m t) then
      failwith "Detrt: mutex unlocked by a task that does not hold it";
    if m.mid >= 0 then Deadlock.released m.mid;
    let s = the_sched () in
    emit_op s (Obs.Mutex_o m.moid) Obs.Unlock;
    release_mutex s m;
    Effect.perform Yield

let cond_wait c m =
  match (dls ()).d_task with
  | None -> failwith "Detrt: Condition.wait outside the deterministic run"
  | Some t ->
    if not (holds m t) then
      failwith "Detrt: Condition.wait without holding the mutex";
    let s = the_sched () in
    emit_op s (Obs.Cond_o c.coid) Obs.Wait;
    emit_op s (Obs.Mutex_o m.moid) Obs.Unlock;
    (* Atomic release-and-park: no scheduling point between enqueueing
       ourselves and releasing the mutex, so signals cannot be lost. *)
    c.cwaiters <- c.cwaiters @ [ t ];
    if m.mid >= 0 then Deadlock.released m.mid;
    release_mutex s m;
    Effect.perform Block;
    (* Signalled: re-acquire like any newcomer (Mesa-style, matching the
       stdlib [Condition] contract the mechanisms are written against). *)
    mutex_lock m

let cond_signal c =
  match (dls ()).d_task with
  | None ->
    if c.cwaiters <> [] then
      failwith "Detrt: Condition.signal with waiters after the run"
  | Some _ ->
    let s = the_sched () in
    emit_op s (Obs.Cond_o c.coid) Obs.Signal;
    (match c.cwaiters with
    | [] -> ()
    | ws ->
      let w, rest = pick_waiter s ws in
      c.cwaiters <- rest;
      make_runnable s w);
    Effect.perform Yield

let cond_broadcast c =
  match (dls ()).d_task with
  | None ->
    if c.cwaiters <> [] then
      failwith "Detrt: Condition.broadcast with waiters after the run"
  | Some _ ->
    let s = the_sched () in
    emit_op s (Obs.Cond_o c.coid) Obs.Broadcast;
    let ws = c.cwaiters in
    c.cwaiters <- [];
    List.iter (make_runnable s) ws;
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

type reg = { mutable rval : int; roid : int }

let reg v = { rval = v; roid = fresh_oid () }

let reg_wake s roid =
  match s.regwaiters with
  | [] -> ()
  | ws ->
    let woken, kept =
      List.partition (fun (_, watched) -> List.mem roid watched) ws
    in
    s.regwaiters <- kept;
    List.iter (fun (t, _) -> make_runnable s t) woken

let reg_get r =
  match (dls ()).d_task with
  | None -> r.rval (* post-run inspection *)
  | Some _ ->
    Effect.perform Yield;
    emit_op (the_sched ()) (Obs.Reg_o r.roid) Obs.Read;
    r.rval

let reg_write s r v =
  r.rval <- v;
  s.reg_epoch <- s.reg_epoch + 1;
  reg_wake s r.roid

let reg_set r v =
  match (dls ()).d_task with
  | None -> r.rval <- v
  | Some _ ->
    Effect.perform Yield;
    let s = the_sched () in
    emit_op s (Obs.Reg_o r.roid) Obs.Write;
    reg_write s r v

let reg_cas r seen v =
  match (dls ()).d_task with
  | None -> failwith "Detrt: reg_cas outside the deterministic run"
  | Some _ ->
    Effect.perform Yield;
    let s = the_sched () in
    let ok = r.rval = seen in
    emit_op s (Obs.Reg_o r.roid) (Obs.Rmw ok);
    if ok then reg_write s r v;
    ok

let reg_faa r n =
  match (dls ()).d_task with
  | None -> failwith "Detrt: reg_faa outside the deterministic run"
  | Some _ ->
    Effect.perform Yield;
    let s = the_sched () in
    let old = r.rval in
    emit_op s (Obs.Reg_o r.roid) (Obs.Rmw true);
    reg_write s r (old + n);
    old

let reg_await ~watch pred =
  match (dls ()).d_task with
  | None ->
    if not (pred ()) then
      failwith "Detrt.reg_await: predicate false outside the run"
  | Some _ ->
    let watched = Array.to_list (Array.map (fun r -> r.roid) watch) in
    let rec loop () =
      let s = the_sched () in
      (* Sampled with no scheduling point between here and the park
         decision except [pred]'s own reads: a write landing during the
         check bumps the epoch and forces a re-check, so a waiter never
         parks having missed the write that would have satisfied it. *)
      let e0 = s.reg_epoch in
      if not (pred ()) then begin
        let s = the_sched () in
        if s.reg_epoch <> e0 then loop ()
        else begin
          let t = self () in
          s.regwaiters <- s.regwaiters @ [ (t, watched) ];
          Effect.perform Block;
          loop ()
        end
      end
    in
    loop ()

(* ------------------------------------------------------------------ *)

let run ?(max_steps = 200_000) ?observe ~choose body =
  let d = dls () in
  if active () then failwith "Detrt.run: deterministic runs do not nest";
  let s =
    { choose; observe; max_steps; runq = []; quiescers = [];
      regwaiters = []; reg_epoch = 0; all = [];
      next_tid = 0; next_oid = 0; steps = 0; first_exn = None;
      limit_hit = false }
  in
  d.d_sched <- Some s;
  Sync_trace.Probe.virtual_run @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      d.d_sched <- None;
      d.d_task <- None)
    (fun () ->
      let main =
        { tid = 0; tname = "main"; state = Unstarted; resume = None;
          t_exn = None; joiners = [] }
      in
      s.next_tid <- 1;
      s.all <- [ main ];
      main.state <- Running;
      d.d_task <- Some main;
      exec s main body;
      (* The handler chain has fully unwound: classify the outcome. *)
      (match s.first_exn with Some e -> raise e | None -> ());
      if s.limit_hit then raise (Step_limit s.max_steps);
      let stuck = List.filter (fun t -> t.state <> Done) s.all in
      if stuck <> [] then begin
        (* When the watchdog is on, the blocked/holds edges of the stuck
           tasks are still registered: name the circular wait, if any. *)
        let cycle =
          match Deadlock.find_cycle () with
          | Some c -> "; wait-for cycle: " ^ Deadlock.cycle_to_string c
          | None -> ""
        in
        raise
          (Deadlock
             (Printf.sprintf "deadlock: %d task(s) blocked forever: %s%s"
                (List.length stuck)
                (String.concat ", "
                   (List.rev_map
                      (fun t -> Printf.sprintf "%s(#%d)" t.tname t.tid)
                      stuck))
                cycle))
      end;
      s.steps)
