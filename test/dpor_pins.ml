(* DPOR pin helpers shared by test_dpor and test_dpor_rw_mon: catalog
   lookup, the exact (explored, races, redundant) check, and the
   complete certification of one catalog entry against its expected
   verdict. *)

module D = Sync_detsched.Detsched
module Scenarios = Sync_detsched.Scenarios

let entry name =
  match Scenarios.find name with
  | Some e -> e
  | None -> Alcotest.failf "scenario %s not in catalog" name

let distinct_messages failures =
  List.sort_uniq compare (List.map snd failures)

(* Exact DPOR counts for the scenarios the dpor-certify benchmark
   explores: classes explored, backtrack points planted by races, and
   sleep-redundant runs. They pin the analysis itself, so a change that
   makes it cheaper must leave all three where they are. *)
let check_counts name (r : D.dpor_report) counts =
  Alcotest.(check (triple int int int))
    (name ^ ": explored, races, redundant")
    counts
    (r.explored, r.races, r.redundant)

let certify name counts ?affix () =
  let e = entry name in
  let r =
    D.explore_dpor ~max_schedules:2_000_000 ~max_failures:100 e.Scenarios.scen
  in
  Alcotest.(check bool) (name ^ ": DPOR covers every class") true r.complete;
  (match e.Scenarios.expect with
  | Scenarios.Pass ->
    Alcotest.(check (list string)) (name ^ ": no class fails") []
      (distinct_messages r.failures)
  | Scenarios.Fail ->
    Alcotest.(check bool) (name ^ ": some class fails") true (r.failed > 0)
  | Scenarios.Always_fail ->
    Alcotest.(check int) (name ^ ": every class fails") r.explored r.failed);
  check_counts name r counts;
  Option.iter
    (fun affix ->
      List.iter
        (fun (_, m) ->
          if not (Astring.String.is_infix ~affix m) then
            Alcotest.failf "%s: unexpected failure mode: %s" name m)
        r.failures)
    affix
