(* Parent (A) runs against change (B) runs, per workload and end-to-end
   metric. The rule is the one a change claiming a gain must meet: it
   wins at least nine tenths of the pairs (ties count for neither) and
   its median differs from the parent's by more than the parent's
   interquartile range. Otherwise a median worse than the parent's by
   more than the declared bound is a regression, and a metric whose
   spread exceeds its bound is unresolved unless every change run beats
   every parent run. A workload whose failed/attempted ratio grew is a
   regression whatever its timings. *)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* Runs pair up in file order, A's i-th with B's i-th. *)
let rec pairs a b =
  match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> []

let judge (d : Spec.decl) a b =
  let better x y = if d.higher_is_better then x > y else x < y in
  let pairs = pairs a b in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let win_frac = float_of_int wins /. float_of_int (max 1 (List.length pairs)) in
  let ma = Stat.median a and mb = Stat.median b in
  let q1a, q3a = Stat.quartiles a in
  let worse = (if d.higher_is_better then ma -. mb else mb -. ma) /. Float.abs ma in
  let spread = Float.max (Stat.spread a) (Stat.spread b) in
  let every_b_beats_every_a = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  let v =
    if win_frac >= 0.9 && Float.abs (mb -. ma) > q3a -. q1a && worse < 0.0 then Improved
    else if spread > d.bound then
      if every_b_beats_every_a then Unchanged else Unresolved
    else if worse > d.bound then Regressed
    else Unchanged
  in
  (v, win_frac)

let fail_ratio rows =
  let att = List.fold_left (fun a (r : Doc.row) -> a + r.attempted) 0 rows in
  let fail = List.fold_left (fun a (r : Doc.row) -> a + r.failed) 0 rows in
  float_of_int fail /. float_of_int (max 1 att)

(* Prints the table; [true] iff nothing regressed. *)
let run (spec : Spec.t) ~a ~b =
  let rows_a = List.concat_map Doc.read a and rows_b = List.concat_map Doc.read b in
  let workloads =
    List.sort_uniq compare (List.map (fun (r : Doc.row) -> r.workload) rows_a)
  in
  Printf.printf "%-15s %-14s %12s %12s %12s %12s %12s %12s %5s  %s\n" "workload"
    "metric" "A median" "A q1" "A q3" "B median" "B q1" "B q3" "wins" "verdict";
  let ok = ref true in
  List.iter
    (fun w ->
      let of_w rows = List.filter (fun (r : Doc.row) -> r.workload = w) rows in
      let ra = of_w rows_a and rb = of_w rows_b in
      let values rows name =
        List.filter_map
          (fun (r : Doc.row) ->
            List.find_opt (fun (m : Doc.metric) -> m.name = name) r.metrics
            |> Option.map (fun (m : Doc.metric) -> m.value))
          rows
      in
      List.iter
        (fun (d : Spec.decl) ->
          match (values ra d.name, values rb d.name) with
          | [], _ | _, [] ->
            Printf.printf "%-15s %-14s %s\n" w d.name "missing on one side"
          | va, vb ->
            let v, win_frac = judge d va vb in
            if v = Regressed then ok := false;
            let q1a, q3a = Stat.quartiles va and q1b, q3b = Stat.quartiles vb in
            Printf.printf "%-15s %-14s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %5.2f  %s\n"
              w d.name (Stat.median va) q1a q3a (Stat.median vb) q1b q3b win_frac
              (verdict_name v))
        spec.Spec.end_to_end;
      let fa = fail_ratio ra and fb = fail_ratio rb in
      let fv = if fb > fa then Regressed else Unchanged in
      if fv = Regressed then ok := false;
      Printf.printf "%-15s %-14s %12.5g %38s %12.5g %38s  %s\n" w "fail_ratio" fa "" fb
        "" (verdict_name fv))
    workloads;
  !ok
