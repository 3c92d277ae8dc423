(* Deterministic-schedule exploration over the [Detrt] runtime: recorded
   schedules, replay, seeded random walk, PCT-style priority fuzzing,
   bounded exhaustive DFS, and greedy shrinking. A scenario instantiates
   the real mechanism implementation inside the run body (so every mutex
   and condition it creates dispatches to the virtual runtime) and checks
   its recorded trace afterwards with the existing checkers. *)

open Sync_platform

module Schedule = struct
  type entry = { alts : int; chosen : int }

  type t = entry array

  let length = Array.length

  let choices t = Array.map (fun e -> e.chosen) t

  let to_string t =
    if Array.length t = 0 then "-"
    else
      String.concat ","
        (Array.to_list
           (Array.map (fun e -> Printf.sprintf "%d/%d" e.chosen e.alts) t))

  let of_string s =
    let s = String.trim s in
    if s = "" || s = "-" then [||]
    else
      String.split_on_char ',' s
      |> List.map (fun tok ->
             let bad () =
               invalid_arg
                 ("Schedule.of_string: bad token \"" ^ String.trim tok ^ "\"")
             in
             match String.split_on_char '/' (String.trim tok) with
             | [ c; a ] -> (
               match (int_of_string_opt c, int_of_string_opt a) with
               | Some chosen, Some alts when chosen >= 0 && alts > chosen ->
                 { chosen; alts }
               | _ -> bad ())
             | _ -> bad ())
      |> Array.of_list
end

type outcome = {
  schedule : Schedule.t;
  steps : int;
  result : (unit, exn) result;
}

type instance = {
  body : unit -> unit;
  check : unit -> (unit, string) result;
}

type t = { name : string; descr : string; make : unit -> instance }

let scenario ~name ~descr make = { name; descr; make }

type verdict = { outcome : outcome; verdict : (unit, string) result }

let verdict_ok v = Result.is_ok v.verdict

let verdict_message v = match v.verdict with Ok () -> "ok" | Error m -> m

(* ------------------------------------------------------------------ *)
(* Pickers: every strategy is just a function from the candidate array
   to the index to run. [Detrt] only consults it when at least two
   alternatives exist, so recorded schedules contain no forced moves.   *)

type pick = int array -> int

let random_pick ~seed : pick =
  let g = Prng.make (Int64.of_int seed) in
  fun alts -> Prng.int g (Array.length alts)

(* PCT-style fuzzing [Burckhardt et al., ASPLOS'10]: each task gets a
   random priority on first sight; the highest-priority candidate runs.
   At [change_points] pre-sampled decision indices the current leader is
   demoted below everything, forcing the rare orderings that a uniform
   random walk visits with vanishing probability. *)
let pct_pick ?(change_points = 3) ?(horizon = 512) ~seed () : pick =
  let g = Prng.make (Int64.of_int seed) in
  let prio : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let change_at =
    let a = Array.init change_points (fun _ -> Prng.int g (max 1 horizon)) in
    Array.sort compare a;
    a
  in
  let next_change = ref 0 in
  let step = ref 0 in
  let p tid = Option.value (Hashtbl.find_opt prio tid) ~default:0 in
  let argmax alts =
    let best = ref 0 in
    Array.iteri (fun i tid -> if p tid > p alts.(!best) then best := i) alts;
    !best
  in
  fun alts ->
    Array.iter
      (fun tid ->
        if not (Hashtbl.mem prio tid) then
          Hashtbl.add prio tid (change_points + 1 + Prng.int g 1_000_000))
      alts;
    while !next_change < change_points && change_at.(!next_change) <= !step do
      let leader = alts.(argmax alts) in
      Hashtbl.replace prio leader (change_points - !next_change);
      incr next_change
    done;
    incr step;
    argmax alts

(* Byte-for-byte replay of a recorded schedule. Decisions beyond the end
   default to alternative 0; a mismatch in the number of alternatives
   means the scenario is not deterministic (or the schedule belongs to a
   different scenario) and fails loudly under [strict]. *)
let replay_pick ?(strict = true) (sched : Schedule.t) : pick =
  let i = ref 0 in
  fun alts ->
    let n = Array.length alts in
    let k = !i in
    incr i;
    if k >= Array.length sched then 0
    else begin
      let e = sched.(k) in
      if e.Schedule.alts <> n && strict then
        failwith
          (Printf.sprintf
             "Detsched.replay: schedule diverged at decision %d (recorded %d \
              alternatives, run offers %d)"
             k e.Schedule.alts n);
      if e.Schedule.chosen >= n then n - 1 else e.Schedule.chosen
    end

(* Replay from bare choice values (used by DFS prefixes and shrinking):
   like [replay_pick ~strict:false] but without recorded alternative
   counts. *)
let choices_pick (cs : int array) : pick =
  let i = ref 0 in
  fun alts ->
    let n = Array.length alts in
    let k = !i in
    incr i;
    if k >= Array.length cs then 0
    else if cs.(k) >= n then n - 1
    else cs.(k)

(* ------------------------------------------------------------------ *)
(* Running                                                              *)

(* The decisions of a run so far: [r_n] (alternatives, chosen) pairs. *)
type recording = {
  mutable r_alts : int array;
  mutable r_chosen : int array;
  mutable r_n : int;
}

let run_raw ?max_steps ?observe ~(pick : pick) body : outcome =
  let r = { r_alts = Array.make 64 0; r_chosen = Array.make 64 0; r_n = 0 } in
  let choose alts =
    let i = pick alts in
    let k = r.r_n in
    if k = Array.length r.r_alts then begin
      r.r_alts <- Array.append r.r_alts r.r_alts;
      r.r_chosen <- Array.append r.r_chosen r.r_chosen
    end;
    r.r_alts.(k) <- Array.length alts;
    r.r_chosen.(k) <- i;
    r.r_n <- k + 1;
    i
  in
  let sched () =
    Array.init r.r_n (fun k ->
        { Schedule.alts = r.r_alts.(k); chosen = r.r_chosen.(k) })
  in
  match Detrt.run ?max_steps ?observe ~choose body with
  | steps -> { schedule = sched (); steps; result = Ok () }
  | exception e -> { schedule = sched (); steps = r.r_n; result = Error e }

let run ?max_steps ?observe ~pick sc : verdict =
  let inst = ref None in
  let body () =
    let i = sc.make () in
    inst := Some i;
    i.body ()
  in
  let outcome = run_raw ?max_steps ?observe ~pick body in
  let verdict =
    match outcome.result with
    | Error e -> Error (Printexc.to_string e)
    | Ok () -> (
      match !inst with
      | Some i -> i.check ()
      | None -> Error "scenario instance was never created")
  in
  { outcome; verdict }

let run_random ?max_steps ~seed sc = run ?max_steps ~pick:(random_pick ~seed) sc

let run_pct ?max_steps ?change_points ?horizon ~seed sc =
  run ?max_steps ~pick:(pct_pick ?change_points ?horizon ~seed ()) sc

let replay ?max_steps ?strict sc sched =
  run ?max_steps ~pick:(replay_pick ?strict sched) sc

type sample_report = {
  runs : int;
  strategy : [ `Random | `Pct ];
  failure : (int * verdict) option;
}

let sample ?max_steps ?(runs = 100) ?(base_seed = 0) ?(strategy = `Random) sc =
  let picker seed =
    match strategy with
    | `Random -> random_pick ~seed
    | `Pct -> pct_pick ~seed ()
  in
  let rec go i =
    if i >= runs then { runs; strategy; failure = None }
    else
      let seed = base_seed + i in
      let v = run ?max_steps ~pick:(picker seed) sc in
      if verdict_ok v then go (i + 1)
      else { runs = i + 1; strategy; failure = Some (seed, v) }
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Bounded exhaustive search: stateless-model-checking style. Each run
   is replayed from a choice prefix (alternative 0 beyond it); after the
   run, every untaken alternative at or beyond the prefix length opens a
   new branch. The worklist is a stack with deepest branches first, so
   the frontier stays small. *)

type dfs_report = {
  explored : int;
  complete : bool;
  failures : (Schedule.t * string) list;
  deepest : int;
  secs : float;
  per_sec : float;
}

let explore_dfs ?max_steps ?(max_schedules = 10_000) ?(max_failures = 10) sc =
  let t0 = Clock.now_ns () in
  let worklist = ref [ [||] ] in
  let explored = ref 0 in
  let failures = ref [] in
  let nfail = ref 0 in
  let deepest = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match !worklist with
    | [] -> continue_ := false
    | _ when !explored >= max_schedules -> continue_ := false
    | prefix :: rest ->
      worklist := rest;
      let v = run ?max_steps ~pick:(choices_pick prefix) sc in
      incr explored;
      let sched = v.outcome.schedule in
      deepest := max !deepest (Array.length sched);
      (match v.verdict with
      | Error m ->
        if !nfail < max_failures then begin
          failures := (sched, m) :: !failures;
          incr nfail
        end
      | Ok () -> ());
      (* Decisions below the prefix length were forced by the prefix;
         their siblings are enqueued when the ancestor run is expanded. *)
      let plen = Array.length prefix in
      let cs = Schedule.choices sched in
      let ext = ref [] in
      for i = plen to Array.length sched - 1 do
        let e = sched.(i) in
        for c = e.Schedule.chosen + 1 to e.Schedule.alts - 1 do
          let p = Array.sub cs 0 (i + 1) in
          p.(i) <- c;
          ext := p :: !ext
        done
      done;
      worklist := !ext @ !worklist
  done;
  let secs = Int64.to_float (Clock.elapsed_ns t0) /. 1e9 in
  ({ explored = !explored;
     complete = !worklist = [];
     failures = List.rev !failures;
     deepest = !deepest;
     secs;
     per_sec = float_of_int !explored /. Float.max secs 1e-9 }
    : dfs_report)

(* ------------------------------------------------------------------ *)
(* Greedy shrinking: first find the shortest failing prefix (everything
   beyond a prefix defaults to alternative 0), then zero out remaining
   non-default choices one at a time until a fixpoint. The result is a
   canonical failing schedule with as few non-default decisions as this
   local search can reach within [budget] replays. *)

type shrink_report = { shrunk : Schedule.t; message : string; attempts : int }

let shrink ?max_steps ?(budget = 300) sc (failing : Schedule.t) =
  let attempts = ref 0 in
  let fails cs =
    if !attempts >= budget then None
    else begin
      incr attempts;
      let v = run ?max_steps ~pick:(choices_pick cs) sc in
      match v.verdict with
      | Error m -> Some m
      | Ok () -> None
    end
  in
  let best = ref (Schedule.choices failing) in
  let best_msg =
    match fails !best with
    | Some m -> ref m
    | None -> invalid_arg "Detsched.shrink: the given schedule does not fail"
  in
  (try
     for len = 0 to Array.length !best - 1 do
       match fails (Array.sub !best 0 len) with
       | Some m ->
         best := Array.sub !best 0 len;
         best_msg := m;
         raise Exit
       | None -> ()
     done
   with Exit -> ());
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to Array.length !best - 1 do
      if !best.(i) <> 0 then begin
        let cand = Array.copy !best in
        cand.(i) <- 0;
        match fails cand with
        | Some m ->
          best := cand;
          best_msg := m;
          changed := true
        | None -> ()
      end
    done
  done;
  (* Trailing zeros are the replay default: drop them, then re-run once
     to rebuild the canonical schedule with alternative counts. *)
  let n = ref (Array.length !best) in
  while !n > 0 && !best.(!n - 1) = 0 do
    decr n
  done;
  let final = Array.sub !best 0 !n in
  incr attempts;
  let v = run ?max_steps ~pick:(choices_pick final) sc in
  match v.verdict with
  | Error m -> { shrunk = v.outcome.schedule; message = m; attempts = !attempts }
  | Ok () -> { shrunk = failing; message = !best_msg; attempts = !attempts }

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction (Flanagan–Godefroid-style, with sleep
   sets). The unit of reordering is the {e quantum}: everything a task
   executes between two scheduler dispatches, which the runtime's [Obs]
   stream delimits with [Sched] events and annotates with the object ids
   every primitive op touched. Two quanta are dependent iff they touch a
   common object (or either performs a scheduler-global op — spawn or
   quiescence). After each run the engine computes vector clocks over the
   quantum sequence, finds reversible races (dependent quanta of distinct
   tasks with no happens-before chain between them), and plants backtrack
   points at the earlier quantum's decision frame; sleep sets prune
   branches whose first transition was already explored from the same
   node and has met nothing dependent since. Exploration restarts from
   mutated frame stacks (decision -> dictated task id), so a schedule
   prefix replays exactly and only the frontier beyond it is free. *)

type dpor_report = {
  explored : int;
  complete : bool;
  failures : (Schedule.t * string) list;
  failed : int;
  deepest : int;
  races : int;
  redundant : int;
  workers : int;
  secs : float;
  per_sec : float;
}

module Dpor = struct
  module Obs = Detrt.Obs
  module ISet = Set.Make (Int)

  exception Diverged of string

  let nondeterministic msg =
    failwith ("Detsched.explore_dpor: scenario is not deterministic: " ^ msg)

  (* Objects are the runtime's packed [Obs] keys; a quantum's object set
     is a duplicate-free int array (a segment of the trace below while
     the run is live). *)
  let global = Obs.global

  let rec mem_from (o : int) (a : int array) i n =
    i < n && (a.(i) = o || mem_from o a (i + 1) n)

  let int_array_equal (a : int array) (b : int array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  (* Grow [a] to hold index [i], zero-filled. *)
  let ensure (a : int array) i =
    if i < Array.length a then a
    else begin
      let b = Array.make (Int.max (i + 1) (2 * Array.length a)) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  (* A sleeping task id together with the objects its already-explored
     transition touched: the entry wakes (is dropped) as soon as any
     executed quantum is dependent with it. *)
  type sleeper = { s_tid : int; s_objs : int array }

  (* One decision of the explored run. Task frames carry persistent
     backtrack/sleep state across re-executions; waiter frames (which
     waiter receives an unlock/signal) are always fully expanded — the
     pick changes synchronization outcomes by construction, so no
     independence argument applies. *)
  type frame = {
    f_task : bool; (* a task pick; otherwise a waiter pick *)
    f_cands : int array;
    mutable f_chosen : int; (* task id dictated on the next replay *)
    mutable f_backtrack : ISet.t;
    mutable f_done : ISet.t;
    mutable f_sleep : sleeper list;
    mutable f_objs : int array; (* objs of the chosen quantum *)
  }

  (* One run's quanta, flat: quantum [i] ran task [proc.(i)], was
     dispatched by decision [dec.(i)] (-1 when forced) and touched
     [objs.(ostart.(i)) .. objs.(ostart.(i + 1) - 1)]. [n] quanta are
     closed; while [q_open], quantum [n] is being filled. *)
  type trace = {
    mutable n : int;
    mutable proc : int array;
    mutable dec : int array;
    mutable ostart : int array;
    mutable objs : int array;
    mutable olen : int;
    mutable q_open : bool;
  }

  let trace () =
    { n = 0; proc = Array.make 64 0; dec = Array.make 64 0;
      ostart = Array.make 65 0; objs = Array.make 256 0; olen = 0;
      q_open = false }

  let open_quantum tr tid dec =
    let i = tr.n in
    if i >= Array.length tr.proc then begin
      tr.proc <- ensure tr.proc i;
      tr.dec <- ensure tr.dec i
    end;
    tr.proc.(i) <- tid;
    tr.dec.(i) <- dec;
    tr.q_open <- true

  let close_quantum tr =
    if tr.q_open then begin
      let i = tr.n + 1 in
      if i >= Array.length tr.ostart then tr.ostart <- ensure tr.ostart i;
      tr.ostart.(i) <- tr.olen;
      tr.n <- i;
      tr.q_open <- false
    end

  let add_obj tr o =
    if not (mem_from o tr.objs tr.ostart.(tr.n) tr.olen) then begin
      if tr.olen >= Array.length tr.objs then tr.objs <- ensure tr.objs tr.olen;
      tr.objs.(tr.olen) <- o;
      tr.olen <- tr.olen + 1
    end

  (* Some object of [objs1] from index [i] on is in [a.(lo .. hi - 1)]. *)
  let rec meets (objs1 : int array) i a lo hi =
    i < Array.length objs1
    && (mem_from objs1.(i) a lo hi || meets objs1 (i + 1) a lo hi)

  (* [dependent]: a sleeper's objects against quantum [q]'s. *)
  let dependent (objs1 : int array) tr q =
    let lo = tr.ostart.(q) and hi = tr.ostart.(q + 1) in
    mem_from global objs1 0 (Array.length objs1)
    || mem_from global tr.objs lo hi
    || meets objs1 0 tr.objs lo hi

  (* An exploration shard's state, reused across its runs. The frame
     stack is [frames.(0 .. depth - 1)]. [cur] is filled by the run in
     progress and [prev] holds the previous run, whose vector clocks sit
     in [vcs]: row [i] (quantum [i]) at offset [i * width]. [width] is
     the widest clock so far and never shrinks, so a reused clock is
     never wider than a fresh one.

     The rest are the analysis's "latest quantum" tables, rebuilt by each
     analysis in place: per task ([last_of_proc], and [proc_qs.(p)], its
     first [nq.(p)] quanta in order), per object key ([last_touch]; -1
     none) and scheduler-global ([last_global]). *)
  type shard = {
    mutable frames : frame array;
    mutable depth : int;
    mutable cur : trace;
    mutable prev : trace;
    mutable vcs : int array;
    mutable width : int;
    mutable last_of_proc : int array;
    mutable nq : int array;
    mutable proc_qs : int array array;
    mutable last_touch : int array;
    mutable last_global : int;
    mutable all_vc : int array;
  }

  let shard frames =
    { frames; depth = Array.length frames; cur = trace (); prev = trace ();
      vcs = [||]; width = 0; last_of_proc = [||]; nq = [||]; proc_qs = [||];
      last_touch = [||]; last_global = -1; all_vc = [||] }

  let push_frame sh f =
    if sh.depth = Array.length sh.frames then begin
      let a = Array.make (Int.max 16 (2 * sh.depth)) f in
      Array.blit sh.frames 0 a 0 sh.depth;
      sh.frames <- a
    end;
    sh.frames.(sh.depth) <- f;
    sh.depth <- sh.depth + 1

  (* The per-event state of [run_one]. *)
  type runst = {
    tr : trace;
    n_stack : int; (* frames dictated by the stack *)
    mutable dec_i : int;
    (* the Choice awaiting [pick]: 0 none, 1 task, 2 waiter *)
    mutable pending : int;
    mutable fresh_from : int;
    mutable dec_for_sched : int;
    mutable online_sleep : sleeper list;
    (* the first closed quantum not yet applied to the sleep set *)
    mutable unconsumed : int;
    mutable redundant : int;
  }

  let sync_sleep st =
    let tr = st.tr in
    for q = st.unconsumed to tr.n - 1 do
      match st.online_sleep with
      | _ :: _ as sleep when tr.ostart.(q + 1) > tr.ostart.(q) ->
        st.online_sleep <-
          List.filter (fun sl -> not (dependent sl.s_objs tr q)) sleep
      | _ -> ()
    done;
    st.unconsumed <- tr.n

  (* Execute one run: decisions below the stack are dictated by the
     frames, decisions beyond it extend the stack, preferring tasks not
     in the current sleep set. Fills [sh.cur] with the run's quanta and
     returns the verdict, the count of sleep-redundant extensions and
     [fresh_from]: how many quanta closed before the stack's top
     (mutated) decision, i.e. the prefix that replays the previous run. *)
  let run_one ?max_steps sc sh =
    let tr = sh.cur in
    tr.n <- 0;
    tr.olen <- 0;
    tr.ostart.(0) <- 0;
    tr.q_open <- false;
    let st =
      { tr; n_stack = sh.depth; dec_i = 0; pending = 0; fresh_from = 0;
        dec_for_sched = -1; online_sleep = []; unconsumed = 0; redundant = 0 }
    in
    let observe ev =
      match ev with
      | Obs.Choice { kind = `Task; _ } ->
        close_quantum tr;
        st.pending <- 1
      | Obs.Choice { kind = `Waiter; _ } -> st.pending <- 2
      | Obs.Sched { tid; _ } ->
        close_quantum tr;
        open_quantum tr tid st.dec_for_sched;
        st.dec_for_sched <- -1
      | Obs.Op { tid; obj; _ } ->
        (* ops of the main task before its first dispatch open a forced
           quantum *)
        if not tr.q_open then open_quantum tr tid (-1);
        add_obj tr obj
    in
    (* [alts] is fresh for each decision, so new frames keep it *)
    let pick alts =
      let is_task =
        match st.pending with
        | 1 -> true
        | 2 -> false
        | _ -> raise (Diverged "choose without a Choice event")
      in
      st.pending <- 0;
      let d = st.dec_i in
      st.dec_i <- d + 1;
      if d = st.n_stack - 1 then st.fresh_from <- tr.n;
      let tid =
        if d < st.n_stack then begin
          let f = sh.frames.(d) in
          if f.f_task <> is_task || not (int_array_equal f.f_cands alts) then
            raise
              (Diverged (Printf.sprintf "replayed decision %d changed shape" d));
          if is_task then begin
            st.online_sleep <- f.f_sleep;
            st.unconsumed <- tr.n
          end;
          f.f_chosen
        end
        else if not is_task then begin
          let tid = alts.(0) in
          push_frame sh
            { f_task = false; f_cands = alts; f_chosen = tid;
              f_backtrack =
                Array.fold_left (fun s t -> ISet.add t s) ISet.empty alts;
              f_done = ISet.empty; f_sleep = []; f_objs = [||] };
          tid
        end
        else begin
          sync_sleep st;
          let asleep t = List.exists (fun sl -> sl.s_tid = t) st.online_sleep in
          let tid =
            match Array.find_opt (fun t -> not (asleep t)) alts with
            | Some t -> t
            | None ->
              (* every candidate's next transition was already explored
                 from an equivalent state: the branch is redundant, but
                 we must still run it to completion to stay replayable *)
              st.redundant <- st.redundant + 1;
              alts.(0)
          in
          push_frame sh
            { f_task = true; f_cands = alts; f_chosen = tid;
              f_backtrack = ISet.singleton tid; f_done = ISet.empty;
              f_sleep = st.online_sleep; f_objs = [||] };
          tid
        end
      in
      if is_task then st.dec_for_sched <- d;
      let rec find i =
        if i >= Array.length alts then
          raise
            (Diverged
               (Printf.sprintf "dictated task %d not runnable at decision %d"
                  tid d))
        else if alts.(i) = tid then i
        else find (i + 1)
      in
      find 0
    in
    let v = run ?max_steps ~observe ~pick sc in
    close_quantum tr;
    (match v.outcome.result with
    | Error (Diverged msg) -> nondeterministic msg
    | _ -> ());
    (v, st.redundant, st.fresh_from)

  (* Join the [w]-wide clock at [src.(soff ..)] into [dst.(doff ..)]. *)
  let join (dst : int array) doff (src : int array) soff w =
    for t = 0 to w - 1 do
      let x = src.(soff + t) in
      if x > dst.(doff + t) then dst.(doff + t) <- x
    done

  (* Grow the per-task tables to [w] tasks and the clock rows to [w]
     entries, re-laying out the first [rows] rows. *)
  let widen sh w rows =
    let w0 = sh.width in
    let v = Array.make (Int.max (rows * w) (2 * Array.length sh.vcs)) 0 in
    for i = 0 to rows - 1 do
      Array.blit sh.vcs (i * w0) v (i * w) w0
    done;
    sh.vcs <- v;
    sh.last_of_proc <- Array.make w (-1);
    sh.nq <- Array.make w 0;
    sh.all_vc <- Array.make w 0;
    sh.proc_qs <-
      Array.init w (fun p ->
          if p < w0 then sh.proc_qs.(p) else Array.make 16 0);
    sh.width <- w

  (* Record quantum [i] of [tr] in the tables. *)
  let touch sh tr i =
    let p = tr.proc.(i) in
    sh.last_of_proc.(p) <- i;
    let c = sh.nq.(p) in
    if c >= Array.length sh.proc_qs.(p) then
      sh.proc_qs.(p) <- ensure sh.proc_qs.(p) c;
    sh.proc_qs.(p).(c) <- i;
    sh.nq.(p) <- c + 1;
    for k = tr.ostart.(i) to tr.ostart.(i + 1) - 1 do
      let o = tr.objs.(k) in
      sh.last_touch.(o) <- i;
      if o = global then sh.last_global <- i
    done

  (* Quantum [i] of [a] and of [b] ran the same task on the same objects. *)
  let same_quantum a b i =
    let lo = a.ostart.(i) and hi = a.ostart.(i + 1) in
    let d = b.ostart.(i) - lo in
    a.proc.(i) = b.proc.(i)
    && hi - lo = b.ostart.(i + 1) - b.ostart.(i)
    &&
    let rec go k = k >= hi || (a.objs.(k) = b.objs.(k + d) && go (k + 1)) in
    go lo

  (* [j -> m], for an immediate predecessor [m] of the quantum being
     analyzed: [m] lies after [j] and its clock has seen [j]. *)
  let[@inline] via vcs w j pj cj m = m > j && vcs.((m * w) + pj) >= cj

  (* Is there a happens-before chain j -> k -> i with j < k < i? Some k
     lies on one iff one of i's immediate predecessors does: its task's
     previous quantum [prev_p], the last toucher of each of its objects,
     and the last global quantum, or every task's last quantum if i is
     global itself. *)
  let chained sh tr w ~prev_p ~lo ~hi ~has_global j =
    let vcs = sh.vcs in
    let pj = tr.proc.(j) in
    let cj = vcs.((j * w) + pj) in
    let via = via vcs w j pj cj in
    via prev_p
    || (let rec objs k =
          k < hi && (via sh.last_touch.(tr.objs.(k)) || objs (k + 1))
        in
        objs lo)
    ||
    if has_global then
      let rec tasks t = t < w && (via sh.last_of_proc.(t) || tasks (t + 1)) in
      tasks 0
    else via sh.last_global

  (* Task [q] has a quantum after [j] that happens-before the quantum
     whose clock row starts at [row]: the last of [q]'s quanta that row
     has seen, its [vcs.(row + q)]-th, lies after [j]. *)
  let later_hb sh w row j q =
    q < w
    &&
    let c = sh.vcs.(row + q) in
    c > 0 && sh.proc_qs.(q).(c - 1) > j

  (* Plant task [q] in [f]'s backtrack set; true if it was not there. *)
  let plant f q =
    (not (ISet.mem q f.f_backtrack))
    && begin
         f.f_backtrack <- ISet.add q f.f_backtrack;
         true
       end

  (* A race partner [j] of quantum [i] (task [p], clock row at [row],
     objects [lo .. hi - 1]): if the race is reversible — no
     happens-before chain passes strictly between j and i — plant a
     backtrack point at j's decision. Returns how many were planted;
     planting is idempotent, so a partner met twice plants nothing more. *)
  let race sh tr w ~pin ~p ~row ~prev_p ~lo ~hi ~has_global j =
    if j < 0 || tr.proc.(j) = p || tr.dec.(j) < Int.max pin 0
       || chained sh tr w ~prev_p ~lo ~hi ~has_global j
    then 0
    else begin
      let d = tr.dec.(j) in
      let f = sh.frames.(d) in
      let enabled = f.f_cands in
      let plant q = if plant f q then 1 else 0 in
      if Array.length enabled <= 1 then 0
      else if Array.mem p enabled then plant p
      else
        match Array.find_opt (later_hb sh w row j) enabled with
        | Some q -> plant q
        | None -> Array.fold_left (fun n q -> n + plant q) 0 enabled
    end

  (* Post-run analysis of [sh.cur]: vector clocks over the quantum
     sequence, then reversible-race detection. For a race (j, i) the
     candidate witnesses are, per Flanagan–Godefroid, the tasks enabled at
     j's decision that either are i's task or have a later quantum
     happens-before i; when none is enabled the whole frontier is
     expanded. Returns how many backtrack points were planted. Races whose
     decision frame lies below [pin] belong to another exploration shard
     and are discarded — sound because the pinned levels are fully
     expanded across shards.

     The analysis is incremental. The first [fresh_from] quanta replay the
     shard's previous run ([sh.prev]), so their clocks are kept and only
     the tables that index them are rebuilt; races and backtrack points
     are computed for the fresh quanta alone. A race between two
     prefix quanta depends only on that prefix, so the run that first
     executed it already planted its backtrack point, on a frame below the
     mutated decision that is still on the stack; planting is idempotent,
     so skipping it changes neither the frames nor the race count. *)
  let analyze ~pin sh ~fresh_from =
    let tr = sh.cur and pv = sh.prev in
    let n = tr.n in
    let reuse = Int.min fresh_from pv.n in
    for i = 0 to reuse - 1 do
      if not (same_quantum tr pv i) then
        nondeterministic
          (Printf.sprintf "replayed quantum %d changed task or objects" i)
    done;
    let w = ref (Int.max 1 sh.width) in
    for i = reuse to n - 1 do
      if tr.proc.(i) >= !w then w := tr.proc.(i) + 1
    done;
    let w = !w in
    if w > sh.width then widen sh w reuse;
    if n * w > Array.length sh.vcs then begin
      let v = Array.make (Int.max (n * w) (2 * Array.length sh.vcs)) 0 in
      Array.blit sh.vcs 0 v 0 (reuse * w);
      sh.vcs <- v
    end;
    let max_key = ref (-1) in
    for k = 0 to tr.olen - 1 do
      max_key := Int.max !max_key tr.objs.(k)
    done;
    if !max_key >= Array.length sh.last_touch then
      sh.last_touch <-
        Array.make (Int.max (!max_key + 1) (2 * Array.length sh.last_touch)) 0;
    Array.fill sh.last_of_proc 0 w (-1);
    Array.fill sh.nq 0 w 0;
    Array.fill sh.last_touch 0 (!max_key + 1) (-1);
    sh.last_global <- -1;
    for i = 0 to reuse - 1 do
      touch sh tr i
    done;
    let vcs = sh.vcs and all_vc = sh.all_vc in
    (* each task's clocks only grow, so its last one joins all of them *)
    Array.fill all_vc 0 w 0;
    for p = 0 to w - 1 do
      let j = sh.last_of_proc.(p) in
      if j >= 0 then join all_vc 0 vcs (j * w) w
    done;
    let planted = ref 0 in
    for i = reuse to n - 1 do
      let p = tr.proc.(i) in
      let lo = tr.ostart.(i) and hi = tr.ostart.(i + 1) in
      let dec = tr.dec.(i) in
      if dec >= 0 then sh.frames.(dec).f_objs <- Array.sub tr.objs lo (hi - lo);
      let has_global = mem_from global tr.objs lo hi in
      let row = i * w in
      Array.fill vcs row w 0;
      let prev_p = sh.last_of_proc.(p) in
      if prev_p >= 0 then join vcs row vcs (prev_p * w) w;
      for k = lo to hi - 1 do
        let j = sh.last_touch.(tr.objs.(k)) in
        if j >= 0 then join vcs row vcs (j * w) w
      done;
      if has_global then join vcs row all_vc 0 w
      else if sh.last_global >= 0 then join vcs row vcs (sh.last_global * w) w;
      (* the joins leave the task's own entry at its previous quantum's
         count, since no clock runs ahead of a task on its own entry *)
      vcs.(row + p) <- vcs.(row + p) + 1;
      (* candidate race partners: the latest earlier quantum per shared
         object, plus — for scheduler-global quanta — the immediately
         preceding quantum and the latest global one. *)
      let race = race sh tr w ~pin ~p ~row ~prev_p ~lo ~hi ~has_global in
      for k = lo to hi - 1 do
        planted := !planted + race sh.last_touch.(tr.objs.(k))
      done;
      if has_global && i > 0 then planted := !planted + race (i - 1);
      planted := !planted + race sh.last_global;
      touch sh tr i;
      join all_vc 0 vcs row w
    done;
    sh.cur <- pv;
    sh.prev <- tr;
    !planted

  type acc = {
    mutable a_explored : int;
    mutable a_complete : bool;
    mutable a_failures : (Schedule.t * string) list; (* newest first *)
    mutable a_failed : int; (* every failing run, recorded or not *)
    mutable a_deepest : int;
    mutable a_races : int;
    mutable a_redundant : int;
  }

  (* Sweep the frame stack top-down for the deepest frame at or above
     [pin] with a pending backtrack task that is neither done nor asleep,
     and truncate the stack there with that task dictated. False when no
     frame has one: the shard's tree is exhausted. *)
  let backtrack ~pin sh =
    let rec sweep i =
      if i < pin then false
      else begin
        let f = sh.frames.(i) in
        f.f_done <- ISet.add f.f_chosen f.f_done;
        let asleep t = List.exists (fun sl -> sl.s_tid = t) f.f_sleep in
        if f.f_task && not (asleep f.f_chosen) then
          f.f_sleep <- { s_tid = f.f_chosen; s_objs = f.f_objs } :: f.f_sleep;
        let pending t = not (ISet.mem t f.f_done || (f.f_task && asleep t)) in
        (* the least pending backtrack task: [fold] runs in increasing order *)
        match
          ISet.fold
            (fun t first ->
              match first with
              | None when pending t -> Some t
              | _ -> first)
            f.f_backtrack None
        with
        | Some t ->
          f.f_chosen <- t;
          f.f_objs <- [||];
          sh.depth <- i + 1;
          true
        | None -> sweep (i - 1)
      end
    in
    sweep (sh.depth - 1)

  (* The exploration loop for one shard: run, analyze, then backtrack and
     re-run. [budget] is the explored-schedule budget shared across
     shards. *)
  let explore_from ?max_steps ~max_schedules ~max_failures ~pin ~budget sc
      init_stack =
    let a =
      { a_explored = 0; a_complete = true; a_failures = []; a_failed = 0;
        a_deepest = 0; a_races = 0; a_redundant = 0 }
    in
    let sh = shard init_stack in
    let running = ref true in
    while !running do
      if Atomic.fetch_and_add budget 1 >= max_schedules then begin
        a.a_complete <- false;
        running := false
      end
      else begin
        let v, red, fresh_from = run_one ?max_steps sc sh in
        a.a_explored <- a.a_explored + 1;
        a.a_redundant <- a.a_redundant + red;
        a.a_deepest <- Int.max a.a_deepest (Array.length v.outcome.schedule);
        (match v.verdict with
        | Error m ->
          a.a_failed <- a.a_failed + 1;
          if a.a_failed <= max_failures then
            a.a_failures <- (v.outcome.schedule, m) :: a.a_failures
        | Ok () -> ());
        a.a_races <- a.a_races + analyze ~pin sh ~fresh_from;
        running := backtrack ~pin sh
      end
    done;
    a
end

let explore_dpor ?max_steps ?(max_schedules = 10_000) ?(max_failures = 10)
    ?(workers = 1) sc =
  let t0 = Clock.now_ns () in
  (* [probe]: the sharded search's probe run, counted like any other *)
  let finish ?probe ~workers accs =
    let explored = ref (if Option.is_some probe then 1 else 0) in
    let complete = ref true in
    let failures = ref [] in
    let failed =
      ref (match probe with Some v when not (verdict_ok v) -> 1 | _ -> 0)
    in
    let deepest = ref 0 in
    let races = ref 0 in
    let redundant = ref 0 in
    List.iter
      (fun (a : Dpor.acc) ->
        explored := !explored + a.a_explored;
        complete := !complete && a.a_complete;
        failures := !failures @ List.rev a.a_failures;
        failed := !failed + a.a_failed;
        deepest := max !deepest a.a_deepest;
        races := !races + a.a_races;
        redundant := !redundant + a.a_redundant)
      accs;
    let failures =
      if List.length !failures > max_failures then
        List.filteri (fun i _ -> i < max_failures) !failures
      else !failures
    in
    let secs = Int64.to_float (Clock.elapsed_ns t0) /. 1e9 in
    { explored = !explored;
      complete = !complete;
      failures;
      failed = !failed;
      deepest = !deepest;
      races = !races;
      redundant = !redundant;
      workers;
      secs;
      per_sec = float_of_int !explored /. Float.max secs 1e-9 }
  in
  let budget = Atomic.make 0 in
  if workers <= 1 then
    let a =
      Dpor.explore_from ?max_steps ~max_schedules ~max_failures ~pin:0 ~budget
        sc [||]
    in
    finish ~workers:1 [ a ]
  else begin
    (* Probe run: discover the top-level frontier, then hand each root
       candidate to a shard with that first decision pinned. The root is
       thereby fully expanded, so races crossing shard boundaries need no
       backtrack points (every alternative root choice is explored). *)
    let probe = Dpor.shard [||] in
    let v0, _, _ = Dpor.run_one ?max_steps sc probe in
    if probe.depth = 0 then
      (* no decisions at all: the tree is a single schedule *)
      let a =
        { Dpor.a_explored = 1; a_complete = true;
          a_failures =
            (match v0.verdict with
            | Error m -> [ (v0.outcome.schedule, m) ]
            | Ok () -> []);
          a_failed = (if verdict_ok v0 then 0 else 1);
          a_deepest = Array.length v0.outcome.schedule;
          a_races = 0; a_redundant = 0 }
      in
      finish ~workers:1 [ a ]
    else begin
      let root = probe.frames.(0) in
      let shards =
        Array.map
          (fun tid ->
            [| { Dpor.f_task = root.f_task; f_cands = Array.copy root.f_cands;
                 f_chosen = tid; f_backtrack = Dpor.ISet.singleton tid;
                 f_done = Dpor.ISet.empty; f_sleep = []; f_objs = [||] } |])
          root.f_cands
      in
      let results = Array.make (Array.length shards) None in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length shards then begin
            results.(i) <-
              Some
                (Dpor.explore_from ?max_steps ~max_schedules ~max_failures
                   ~pin:1 ~budget sc shards.(i));
            loop ()
          end
        in
        loop ()
      in
      let nw = min workers (Array.length shards) in
      let handles =
        List.init nw (fun w ->
            Process.spawn ~name:(Printf.sprintf "dpor-%d" w) ~backend:`Domain
              worker)
      in
      List.iter Process.join handles;
      let accs = Array.to_list results |> List.filter_map Fun.id in
      finish ~probe:v0 ~workers:nw accs
    end
  end
