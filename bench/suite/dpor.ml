(* The verification workload: complete single-worker DPOR over the
   certified catalog entries and their broken controls, on the
   deterministic substrate. The class counts are exact, so every pass is
   also a correctness check: a count that moves, an incomplete search, or
   a failure found on the wrong scenario fails the run. *)

module Detsched = Sync_detsched.Detsched
module Scenarios = Sync_detsched.Scenarios
module Probe = Sync_trace.Probe
module Emit = Sync_metrics.Emit
module Prng = Sync_platform.Prng

type scen = { name : string; classes : int; broken : bool }

let scen ?(broken = false) name classes = { name; classes; broken }

let catalog =
  [ scen "ticket-sem-handoff-3t" 82310; scen ~broken:true "rw-fig1" 42240;
    scen "swap-excl-1t1r1f" 3445; scen "ticket-excl-2t2r" 5034;
    scen "bakery-excl-2t1r" 942; scen "mcs-excl-2t1r" 911;
    scen "clh-excl-2t1r" 208; scen ~broken:true "naive-rw-excl-2t1r" 3475;
    scen ~broken:true "swap-excl-norecheck-1t1r1f" 5383 ]

let quick_catalog =
  List.filter
    (fun s -> s.name = "bakery-excl-2t1r" || s.name = "naive-rw-excl-2t1r")
    catalog

let find s =
  match Scenarios.find s.name with
  | Some e -> e.Scenarios.scen
  | None -> failwith ("dpor: no catalog scenario " ^ s.name)

type result = {
  scen : scen;
  first_run_s : float;  (** one default schedule, before the search *)
  explored : int;
  complete : bool;
  found_failure : bool;
  secs : float;
  cpu_s : float;
}

(* A traced exploration is wrapped in one [bench.dpor] span. *)
let explore ?(max_schedules = 1_000_000) s =
  let sc = find s in
  let f0 = Box.now_ns () in
  ignore (Detsched.run ~pick:(Detsched.choices_pick [||]) sc);
  let first_run_s = float_of_int (Box.now_ns () - f0) /. 1e9 in
  let c0 = Box.self_cpu_ns () and t0 = Probe.now () in
  let r = Detsched.explore_dpor ~max_schedules ~workers:1 sc in
  Probe.span Probe.Op ~site:"bench.dpor" ~since:t0 ~arg:0;
  { scen = s;
    first_run_s;
    explored = r.Detsched.explored;
    complete = r.Detsched.complete;
    found_failure = r.Detsched.failures <> [];
    secs = r.Detsched.secs;
    cpu_s = float_of_int (Box.self_cpu_ns () - c0) /. 1e9 }

let check r =
  if not r.complete then [ r.scen.name ^ ": search incomplete" ]
  else if r.explored <> r.scen.classes then
    [ Printf.sprintf "%s: %d classes, expected %d" r.scen.name r.explored
        r.scen.classes ]
  else if r.found_failure <> r.scen.broken then
    [ Printf.sprintf "%s: %s" r.scen.name
        (if r.scen.broken then "broken control passed" else "failure found") ]
  else []

let run ?traced ~seed ~ms ~quick () =
  let cat = if quick then quick_catalog else catalog in
  if traced <> None then begin
    Probe.reset ();
    Probe.enable ()
  end;
  (* Whole passes in a seed-shuffled order, one per 5 s of window (a
     full pass takes about 6.5 s on the reference box): a fixed count,
     so how many passes a run makes never depends on how fast it ran. *)
  let all_passes =
    List.init (max 1 (ms / 5000)) (fun p ->
        let order = Array.of_list cat in
        Prng.shuffle (Prng.make (Int64.of_int ((seed * 1000) + p))) order;
        List.map (fun s -> explore s) (Array.to_list order))
  in
  (match traced with
  | Some acc ->
    Probe.disable ();
    Traced.add_rings acc
  | None -> ());
  let results = List.concat all_passes in
  let checks = List.concat_map check results in
  let of_scen s = List.filter (fun r -> r.scen.name = s.name) results in
  let rate r = float_of_int r.explored /. r.secs in
  (* A pass's time predicted from each scenario's best pass: other
     tenants of a shared box only ever slow a single-threaded search. *)
  let pass_s =
    List.fold_left
      (fun a s ->
        a +. (float_of_int s.classes /. List.fold_left Float.max 0.0 (List.map rate (of_scen s))))
      0.0 cat
  in
  (* Set-up is building and running one default schedule of every
     scenario, the cost that precedes any search: each scenario's best
     pass, summed. *)
  let setup =
    List.fold_left
      (fun a s ->
        a +. List.fold_left Float.min infinity (List.map (fun r -> r.first_run_s) (of_scen s)))
      0.0 cat
  in
  let classes = List.fold_left (fun a s -> a + s.classes) 0 cat in
  let explored = List.fold_left (fun a r -> a + r.explored) 0 results in
  let cpu_s = List.fold_left (fun a r -> a +. r.cpu_s) 0.0 results in
  let scenario_detail =
    Emit.Obj
      (List.map
         (fun s ->
           ( s.name,
             Emit.Obj
               [ ("classes", Emit.List (List.map (fun r -> Emit.Int r.explored) (of_scen s)));
                 ("schedules_per_s", Emit.List (List.map (fun r -> Emit.Float (rate r)) (of_scen s)));
                 ("broken", Emit.Bool s.broken) ] ))
         cat)
  in
  let detail =
    Emit.Obj
      [ ("cpu_us_per_op", Emit.Float (cpu_s *. 1e6 /. float_of_int (max 1 explored)));
        ("peak_rss_mb", Emit.Float (Box.peak_rss_mb ~pid:"self"));
        ("scenarios", scenario_detail) ]
  in
  Doc.row ~workload:"dpor-certify" ~attempted:explored
    ~failed:(List.length checks) ~checks
    ~windows:
      (Emit.Obj
         [ ("passes", Emit.Int (List.length all_passes));
           ("scenarios", Emit.Int (List.length cat)); ("workers", Emit.Int 1) ])
    ~detail
    ~metrics:
      [ Doc.metric "ops_per_s" "1/s" (float_of_int classes /. pass_s);
        Doc.metric "setup_s" "s" setup ]
