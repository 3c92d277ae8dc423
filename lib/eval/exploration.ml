(* The exploration axis (E26): naive bounded DFS vs dynamic partial-order
   reduction over the scenario catalog, at a shared schedule budget per
   row. Where both engines complete, the row is a soundness check (the
   distinct failure modes must agree and DPOR must have explored no more
   schedules); where only DPOR completes, the row is the point of the
   axis — full coverage of a schedule tree naive DFS cannot finish, with
   the anomaly set (or its absence) machine-checked over every
   equivalence class. *)

module D = Sync_detsched.Detsched
module Scenarios = Sync_detsched.Scenarios

type engine = {
  explored : int;
  complete : bool;
  modes : string list; (* distinct failure messages *)
  secs : float;
}

type row = {
  scenario : string;
  budget : int; (* max_schedules, same for both engines *)
  dfs : engine;
  dpor : engine;
  races : int; (* backtrack points the DPOR analysis planted *)
  workers : int;
}

let distinct_modes failures = List.sort_uniq compare (List.map snd failures)

(* Failure-mode comparison needs the caps off; the budgets here keep the
   failing-schedule counts far below this. *)
let max_failures = 1_000_000

let measure ?(workers = 1) ~budget sc =
  let d = D.explore_dfs ~max_schedules:budget ~max_failures sc in
  let p = D.explore_dpor ~max_schedules:budget ~max_failures ~workers sc in
  { scenario = sc.D.name;
    budget;
    dfs =
      { explored = d.D.explored; complete = d.D.complete;
        modes = distinct_modes d.D.failures; secs = d.D.secs };
    dpor =
      { explored = p.D.explored; complete = p.D.complete;
        modes = distinct_modes p.D.failures; secs = p.D.secs };
    races = p.D.races;
    workers = p.D.workers }

let catalog name ~budget ?workers () =
  match Scenarios.find name with
  | Some e -> measure ?workers ~budget e.Scenarios.scen
  | None -> invalid_arg ("Exploration.run: no catalog scenario " ^ name)

(* The default matrix stays CI-sized on one worker; [full] adds shapes
   that push the engine to (and past) its frontier, sharded over two
   domains, and is meant for the non-blocking dpor-deep job. The storm
   rows keep [workers = 1] regardless: the fault registry is
   process-global (see {!Sync_detsched.Scenarios}). *)
let run ?(full = false) ?(progress = fun (_ : row) -> ()) () =
  let note r =
    progress r;
    r
  in
  let w = if full then 2 else 1 in
  let base =
    [ (fun () -> catalog "deadlock-abba" ~budget:10_000 ~workers:w ());
      (fun () -> catalog "bb-sem-small" ~budget:30_000 ~workers:w ());
      (fun () -> catalog "storm-bb-sem-1p1c2i" ~budget:8_000 ());
      (fun () -> catalog "rw-fig1" ~budget:50_000 ~workers:w ()) ]
  in
  let deep_rows =
    [ (fun () -> catalog "rw-ser" ~budget:50_000 ~workers:w ());
      (fun () -> catalog "rw-fig2" ~budget:50_000 ~workers:w ());
      (fun () -> catalog "rw-mon-excl" ~budget:100_000 ~workers:w ());
      (fun () ->
        measure ~workers:1 ~budget:60_000
          (Scenarios.storm_bb_sem ~items:3 ()));
      (fun () ->
        measure ~workers:w ~budget:100_000
          (Scenarios.bb_sized "bb-sem-1p1c3i" (module Sync_problems.Bb_sem)
             ~capacity:1 ~producers:1 ~consumers:1 ~items:3)) ]
  in
  List.map
    (fun f -> note (f ()))
    (if full then base @ deep_rows else base)

(* Soundness over a row list: wherever the ground truth exists (DFS
   completed), DPOR must agree on the failure modes, must also have
   completed, and must not have explored more schedules. *)
let sound rows =
  List.for_all
    (fun r ->
      (not r.dfs.complete)
      || (r.dpor.complete
         && r.dpor.modes = r.dfs.modes
         && r.dpor.explored <= r.dfs.explored))
    rows

let verdict r =
  if r.dfs.complete && r.dpor.complete then
    if r.dpor.modes = r.dfs.modes && r.dpor.explored <= r.dfs.explored then
      "agree"
    else "DISAGREE"
  else if r.dpor.complete then "dpor-only"
  else "both-bounded"

(* A disagreement with the ground truth is a failed row; where DFS
   completed, [reduction] is how many times fewer schedules DPOR
   needed. *)
let row_doc r =
  let open Sync_metrics in
  let eng name e =
    [ (name ^ ".explored", float_of_int e.explored);
      (name ^ ".complete", if e.complete then 1. else 0.);
      (name ^ ".failure_modes", float_of_int (List.length e.modes));
      (name ^ ".secs", e.secs) ]
  in
  Bench_doc.row
    ~status:
      (if verdict r = "DISAGREE" then Bench_doc.Failed "DISAGREE"
       else Bench_doc.Supported)
    [ ("scenario", Emit.Str r.scenario) ]
    ([ ("budget", float_of_int r.budget); ("races", float_of_int r.races);
       ("workers", float_of_int r.workers) ]
    @ eng "dfs" r.dfs @ eng "dpor" r.dpor
    @
    if r.dfs.complete && r.dpor.explored > 0 then
      [ ("reduction", float_of_int r.dfs.explored /. float_of_int r.dpor.explored) ]
    else [])

(* The failure modes DPOR found go to the summary, keyed by scenario. *)
let to_json rows =
  let open Sync_metrics in
  Bench_doc.document ~experiment:"E26"
    ~description:
      "exploration: bounded DFS vs DPOR at one schedule budget per \
       scenario; complete = 1 when the engine covered its whole tree"
    ~summary:
      [ ("sound", Emit.Bool (sound rows));
        ( "failure_modes",
          Emit.Obj
            (List.map
               (fun r ->
                 (r.scenario, Emit.List (List.map (fun m -> Emit.Str m) r.dpor.modes)))
               rows) ) ]
    (List.map row_doc rows)
