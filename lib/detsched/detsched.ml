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

let run_raw ?max_steps ?observe ~(pick : pick) body : outcome =
  let rev = ref [] in
  let count = ref 0 in
  let choose alts =
    let i = pick alts in
    rev := { Schedule.alts = Array.length alts; chosen = i } :: !rev;
    incr count;
    i
  in
  let sched () = Array.of_list (List.rev !rev) in
  match Detrt.run ?max_steps ?observe ~choose body with
  | steps -> { schedule = sched (); steps; result = Ok () }
  | exception e -> { schedule = sched (); steps = !count; result = Error e }

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
  module IH = Hashtbl.Make (Int)

  exception Diverged of string

  let nondeterministic msg =
    failwith ("Detsched.explore_dpor: scenario is not deterministic: " ^ msg)

  (* Objects are keyed by a private int: the kind in the low two bits over
     the ordinal. Injective for every id the runtime hands out (ordinals
     are >= -1, task ids >= 0), leaving 0 for the scheduler-global
     pseudo-object. *)
  let global = 0

  let key : Obs.objid -> int = function
    | Obs.Global -> global
    | Task_o i -> (4 * i) + 4
    | Mutex_o i -> (4 * i) + 5
    | Cond_o i -> (4 * i) + 6
    | Reg_o i -> (4 * i) + 7

  let rec mem (o : int) = function [] -> false | x :: r -> x = o || mem o r

  (* A sleeping task id together with the objects its already-explored
     transition touched: the entry wakes (is dropped) as soon as any
     executed quantum is dependent with it. *)
  type sleeper = { s_tid : int; s_objs : int list }

  (* One decision of the explored run. Task frames carry persistent
     backtrack/sleep state across re-executions; waiter frames (which
     waiter receives an unlock/signal) are always fully expanded — the
     pick changes synchronization outcomes by construction, so no
     independence argument applies. *)
  type frame = {
    f_kind : [ `Task | `Waiter ];
    f_cands : int array;
    mutable f_chosen : int; (* task id dictated on the next replay *)
    mutable f_backtrack : ISet.t;
    mutable f_done : ISet.t;
    mutable f_sleep : sleeper list;
    mutable f_objs : int list; (* objs of the chosen quantum *)
  }

  type quantum = {
    q_proc : int;
    q_dec : int; (* decision index that dispatched it; -1 when forced *)
    q_enabled : int array;
    mutable q_objs : int list;
  }

  let dependent objs1 objs2 =
    mem global objs1 || mem global objs2
    || List.exists (fun o -> mem o objs2) objs1

  (* Execute one run: decisions below the stack are dictated by the
     frames, decisions beyond it extend the stack, preferring tasks not
     in the current sleep set. Returns the verdict, the quantum sequence,
     the full frame stack, the count of sleep-redundant extensions and
     [fresh_from]: how many quanta closed before the stack's top
     (mutated) decision, i.e. the prefix that replays the previous run. *)
  let run_one ?max_steps sc (stack : frame array) =
    let n_stack = Array.length stack in
    let dec_i = ref 0 in
    let pending = ref None in
    let new_frames = ref [] in
    let quanta_rev = ref [] in
    let closed = ref 0 in
    let fresh_from = ref 0 in
    let q_open = ref None in
    let dec_for_sched = ref (-1) in
    let online_sleep = ref [] in
    let unconsumed = ref [] in
    let redundant = ref 0 in
    let close_quantum () =
      match !q_open with
      | None -> ()
      | Some q ->
        quanta_rev := q :: !quanta_rev;
        unconsumed := q :: !unconsumed;
        incr closed;
        q_open := None
    in
    let sync_sleep () =
      List.iter
        (fun q ->
          if q.q_objs <> [] then
            online_sleep :=
              List.filter
                (fun sl -> not (dependent sl.s_objs q.q_objs))
                !online_sleep)
        (List.rev !unconsumed);
      unconsumed := []
    in
    let observe ev =
      match ev with
      | Obs.Choice { kind = `Task; _ } ->
        close_quantum ();
        pending := Some `Task
      | Obs.Choice { kind = `Waiter; _ } -> pending := Some `Waiter
      | Obs.Sched { tid; runnable } ->
        close_quantum ();
        let dec = !dec_for_sched in
        dec_for_sched := -1;
        q_open :=
          Some { q_proc = tid; q_dec = dec; q_enabled = runnable; q_objs = [] }
      | Obs.Op { tid; obj; _ } ->
        let q =
          match !q_open with
          | Some q -> q
          | None ->
            (* ops of the main task before its first dispatch *)
            let q =
              { q_proc = tid; q_dec = -1; q_enabled = [| tid |]; q_objs = [] }
            in
            q_open := Some q;
            q
        in
        let o = key obj in
        if not (mem o q.q_objs) then q.q_objs <- o :: q.q_objs
    in
    let pick alts =
      let kind =
        match !pending with
        | Some k ->
          pending := None;
          k
        | None -> raise (Diverged "choose without a Choice event")
      in
      let d = !dec_i in
      incr dec_i;
      if d = n_stack - 1 then fresh_from := !closed;
      let tid =
        if d < n_stack then begin
          let f = stack.(d) in
          if f.f_kind <> kind || f.f_cands <> alts then
            raise
              (Diverged (Printf.sprintf "replayed decision %d changed shape" d));
          (if kind = `Task then begin
             online_sleep := f.f_sleep;
             unconsumed := []
           end);
          f.f_chosen
        end
        else begin
          match kind with
          | `Waiter ->
            let tid = alts.(0) in
            new_frames :=
              { f_kind = `Waiter; f_cands = Array.copy alts; f_chosen = tid;
                f_backtrack =
                  Array.fold_left (fun s t -> ISet.add t s) ISet.empty alts;
                f_done = ISet.empty; f_sleep = []; f_objs = [] }
              :: !new_frames;
            tid
          | `Task ->
            sync_sleep ();
            let asleep t =
              List.exists (fun sl -> sl.s_tid = t) !online_sleep
            in
            let tid =
              match Array.find_opt (fun t -> not (asleep t)) alts with
              | Some t -> t
              | None ->
                (* every candidate's next transition was already explored
                   from an equivalent state: the branch is redundant, but
                   we must still run it to completion to stay replayable *)
                incr redundant;
                alts.(0)
            in
            new_frames :=
              { f_kind = `Task; f_cands = Array.copy alts; f_chosen = tid;
                f_backtrack = ISet.singleton tid; f_done = ISet.empty;
                f_sleep = !online_sleep; f_objs = [] }
              :: !new_frames;
            tid
        end
      in
      if kind = `Task then dec_for_sched := d;
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
    close_quantum ();
    (match v.outcome.result with
    | Error (Diverged msg) -> nondeterministic msg
    | _ -> ());
    let frames =
      Array.append stack (Array.of_list (List.rev !new_frames))
    in
    (v, Array.of_list (List.rev !quanta_rev), frames, !redundant, !fresh_from)

  (* What a shard's previous run leaves for the next one's analysis: its
     quanta and their vector clocks. [h_ntids] is the widest clock so far
     and never shrinks, so a reused clock is never wider than a fresh one. *)
  type history = {
    mutable h_quanta : quantum array;
    mutable h_vcs : int array array;
    mutable h_ntids : int;
  }

  (* Post-run analysis: vector clocks over the quantum sequence, then
     reversible-race detection. For a race (j, i) the candidate witnesses
     are, per Flanagan–Godefroid, the tasks enabled at j's decision that
     either are i's task or have a later quantum happens-before i; when
     none is enabled the whole frontier is expanded. Returns how many
     backtrack points were planted. Races whose decision frame lies below
     [pin] belong to another exploration shard and are discarded — sound
     because the pinned levels are fully expanded across shards.

     The analysis is incremental. The first [fresh_from] quanta replay the
     shard's previous run ([h]), so their clocks are taken from it
     and only the tables that index them are rebuilt; races and backtrack
     points are computed for the fresh quanta alone. A race between two
     prefix quanta depends only on that prefix, so the run that first
     executed it already planted its backtrack point, on a frame below the
     mutated decision that is still on the stack; planting is idempotent,
     so skipping it changes neither the frames nor the race count. *)
  let analyze ~pin (h : history) ~fresh_from (frames : frame array)
      (quanta : quantum array) =
    let n = Array.length quanta in
    let reuse = min fresh_from (Array.length h.h_quanta) in
    let ntids = ref h.h_ntids in
    for i = reuse to n - 1 do
      ntids := max !ntids (quanta.(i).q_proc + 1)
    done;
    let ntids = !ntids in
    let vcs = Array.make n [||] in
    (* latest quantum per task, per object, and scheduler-global; -1 none *)
    let last_of_proc = Array.make ntids (-1) in
    let last_touch = IH.create 32 in
    let last_global = ref (-1) in
    let touch i q =
      last_of_proc.(q.q_proc) <- i;
      List.iter (fun o -> IH.replace last_touch o i) q.q_objs;
      if mem global q.q_objs then last_global := i
    in
    for i = 0 to reuse - 1 do
      let q = quanta.(i) and p = h.h_quanta.(i) in
      if q.q_proc <> p.q_proc || not (List.equal Int.equal q.q_objs p.q_objs)
      then
        nondeterministic
          (Printf.sprintf "replayed quantum %d changed task or objects" i);
      vcs.(i) <- h.h_vcs.(i);
      touch i q
    done;
    (* a shorter [src] is a prefix clock from a run with fewer tasks *)
    let join dst src =
      for t = 0 to Array.length src - 1 do
        if src.(t) > dst.(t) then dst.(t) <- src.(t)
      done
    in
    let join_last dst j = if j >= 0 then join dst vcs.(j) in
    (* each task's clocks only grow, so its last one joins all of them *)
    let all_vc = Array.make ntids 0 in
    Array.iter (join_last all_vc) last_of_proc;
    (* [hb j k]: quantum [j] happens-before quantum [k] (for j < k). *)
    let hb j k =
      let p = quanta.(j).q_proc in
      vcs.(k).(p) >= vcs.(j).(p)
    in
    let planted = ref 0 in
    for i = reuse to n - 1 do
      let q = quanta.(i) in
      if q.q_dec >= 0 then frames.(q.q_dec).f_objs <- q.q_objs;
      let has_global = mem global q.q_objs in
      let vc = Array.make ntids 0 in
      join_last vc last_of_proc.(q.q_proc);
      List.iter
        (fun o ->
          match IH.find_opt last_touch o with
          | Some j -> join vc vcs.(j)
          | None -> ())
        q.q_objs;
      if has_global then join vc all_vc else join_last vc !last_global;
      (* the joins leave the task's own entry at its previous quantum's
         count, since no clock runs ahead of a task on its own entry *)
      vc.(q.q_proc) <- vc.(q.q_proc) + 1;
      vcs.(i) <- vc;
      (* candidate race partners: the latest earlier quantum per shared
         object, plus — for scheduler-global quanta — the immediately
         preceding quantum and the latest global one. *)
      let partners = ref ISet.empty in
      List.iter
        (fun o ->
          match IH.find_opt last_touch o with
          | Some j when quanta.(j).q_proc <> q.q_proc ->
            partners := ISet.add j !partners
          | _ -> ())
        q.q_objs;
      if has_global && i > 0 && quanta.(i - 1).q_proc <> q.q_proc then
        partners := ISet.add (i - 1) !partners;
      if !last_global >= 0 && quanta.(!last_global).q_proc <> q.q_proc then
        partners := ISet.add !last_global !partners;
      ISet.iter
        (fun j ->
          (* the race is reversible iff no happens-before chain passes
             strictly between j and i *)
          let chained = ref false in
          for k = j + 1 to i - 1 do
            if (not !chained) && hb j k && hb k i then chained := true
          done;
          if not !chained then begin
            let qj = quanta.(j) in
            let d = qj.q_dec in
            if d >= pin && d >= 0 && Array.length qj.q_enabled > 1 then begin
              let f = frames.(d) in
              let witness p =
                p = q.q_proc
                ||
                let ok = ref false in
                for k = j + 1 to i - 1 do
                  if (not !ok) && quanta.(k).q_proc = p && hb k i then
                    ok := true
                done;
                !ok
              in
              let enabled = Array.to_list qj.q_enabled in
              let to_add =
                match List.filter witness enabled with
                | [] -> enabled
                | es -> if mem q.q_proc es then [ q.q_proc ] else [ List.hd es ]
              in
              List.iter
                (fun p ->
                  if not (ISet.mem p f.f_backtrack) then begin
                    f.f_backtrack <- ISet.add p f.f_backtrack;
                    incr planted
                  end)
                to_add
            end
          end)
        !partners;
      touch i q;
      join all_vc vc
    done;
    h.h_quanta <- quanta;
    h.h_vcs <- vcs;
    h.h_ntids <- ntids;
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

  (* The exploration loop for one shard: run, analyze, then sweep the
     frame stack bottom-up for the deepest frame with a pending backtrack
     task that is neither done nor asleep, truncate there and re-run.
     [budget] is the explored-schedule budget shared across shards. *)
  let explore_from ?max_steps ~max_schedules ~max_failures ~pin ~budget sc
      init_stack =
    let a =
      { a_explored = 0; a_complete = true; a_failures = []; a_failed = 0;
        a_deepest = 0; a_races = 0; a_redundant = 0 }
    in
    let stack = ref init_stack in
    let h = { h_quanta = [||]; h_vcs = [||]; h_ntids = 1 } in
    let running = ref true in
    while !running do
      if Atomic.fetch_and_add budget 1 >= max_schedules then begin
        a.a_complete <- false;
        running := false
      end
      else begin
        let v, quanta, frames, red, fresh_from = run_one ?max_steps sc !stack in
        a.a_explored <- a.a_explored + 1;
        a.a_redundant <- a.a_redundant + red;
        a.a_deepest <- max a.a_deepest (Array.length v.outcome.schedule);
        (match v.verdict with
        | Error m ->
          a.a_failed <- a.a_failed + 1;
          if a.a_failed <= max_failures then
            a.a_failures <- (v.outcome.schedule, m) :: a.a_failures
        | Ok () -> ());
        a.a_races <- a.a_races + analyze ~pin h ~fresh_from frames quanta;
        let next_stack = ref None in
        let i = ref (Array.length frames - 1) in
        while !next_stack = None && !i >= pin do
          let f = frames.(!i) in
          f.f_done <- ISet.add f.f_chosen f.f_done;
          (if
             f.f_kind = `Task
             && not (List.exists (fun sl -> sl.s_tid = f.f_chosen) f.f_sleep)
           then
             f.f_sleep <- { s_tid = f.f_chosen; s_objs = f.f_objs } :: f.f_sleep);
          let blocked =
            match f.f_kind with
            | `Waiter -> f.f_done
            | `Task ->
              List.fold_left
                (fun s sl -> ISet.add sl.s_tid s)
                f.f_done f.f_sleep
          in
          let waiting = ISet.diff f.f_backtrack blocked in
          if not (ISet.is_empty waiting) then begin
            f.f_chosen <- ISet.min_elt waiting;
            f.f_objs <- [];
            next_stack := Some (Array.sub frames 0 (!i + 1))
          end
          else decr i
        done;
        match !next_stack with
        | Some st -> stack := st
        | None -> running := false
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
    let v0, _, frames0, _, _ = Dpor.run_one ?max_steps sc [||] in
    if Array.length frames0 = 0 then
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
      let root = frames0.(0) in
      let shards =
        Array.map
          (fun tid ->
            [| { Dpor.f_kind = root.f_kind; f_cands = Array.copy root.f_cands;
                 f_chosen = tid; f_backtrack = Dpor.ISet.singleton tid;
                 f_done = Dpor.ISet.empty; f_sleep = []; f_objs = [] } |])
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
