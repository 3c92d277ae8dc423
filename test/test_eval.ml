(* The mechanized methodology itself: registry hygiene, matrix agreement
   with the paper, independence metric properties, modularity ordering. *)
open Sync_eval
open Sync_taxonomy

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Registry hygiene                                                    *)

let test_registry_ids_unique () =
  let ids = List.map (fun e -> Meta.id e.Registry.meta) Registry.all in
  let dups =
    List.filter (fun id -> List.length (List.filter (( = ) id) ids) > 1) ids
  in
  Alcotest.(check (list string)) "no duplicate ids" [] dups

let test_registry_covers_matrix () =
  (* Every canonical problem has a solution under every mechanism. *)
  List.iter
    (fun problem ->
      List.iter
        (fun mech ->
          let hit =
            List.exists
              (fun e ->
                e.Registry.meta.Meta.problem = problem
                && e.Registry.meta.Meta.mechanism = mech)
              Registry.all
          in
          check_bool (problem ^ "@" ^ mech) true hit)
        Registry.mechanisms)
    Registry.problems

let test_fragments_cover_spec_constraints () =
  List.iter
    (fun e ->
      List.iter
        (fun c ->
          check_bool
            (Meta.id e.Registry.meta ^ " implements " ^ c.Constr.id)
            true
            (List.mem_assoc c.Constr.id e.Registry.meta.Meta.fragments))
        e.Registry.spec.Sync_problems.Spec.constraints)
    Registry.all

let test_info_access_covers_spec_info () =
  (* Every information category a problem exercises must be classified by
     each of its solutions. *)
  List.iter
    (fun e ->
      List.iter
        (fun kind ->
          check_bool
            (Meta.id e.Registry.meta ^ " classifies "
            ^ Info.to_string kind)
            true
            (List.mem_assoc kind e.Registry.meta.Meta.info_access))
        e.Registry.spec.Sync_problems.Spec.info)
    Registry.all

let test_expected_anomalies_are_exactly_two () =
  let anomalies =
    List.filter (fun e -> not e.Registry.expect_conformant) Registry.all
  in
  Alcotest.(check (list string))
    "documented anomalies"
    [ "readers-writers/readers-priority-courtois@semaphore";
      "readers-writers/fig1-readers-priority@pathexpr" ]
    (List.map (fun e -> Meta.id e.Registry.meta) anomalies)

(* ------------------------------------------------------------------ *)
(* Expressiveness (E3)                                                 *)

let test_matrix_agrees_with_paper () =
  let m = Expressiveness.matrix Registry.all in
  match Expressiveness.agrees_with_paper m with
  | [] -> ()
  | (mech, kind, why) :: _ ->
    Alcotest.failf "matrix disagrees: %s/%s: %s" mech (Info.to_string kind)
      why

let test_matrix_pathexpr_parameters_unsupported () =
  let m = Expressiveness.matrix Registry.all in
  let cells = List.assoc "pathexpr" m in
  match (List.assoc Info.Parameters cells).Expressiveness.level with
  | Some Meta.Unsupported -> ()
  | other ->
    Alcotest.failf "expected unsupported, got %s"
      (match other with
      | None -> "none"
      | Some l -> Meta.support_to_string l)

let test_matrix_csp_all_direct () =
  let m = Expressiveness.matrix Registry.all in
  let cells = List.assoc "csp" m in
  List.iter
    (fun (kind, cell) ->
      match cell.Expressiveness.level with
      | Some Meta.Direct -> ()
      | _ -> Alcotest.failf "csp %s not direct" (Info.to_string kind))
    cells

(* ------------------------------------------------------------------ *)
(* Independence (E4)                                                   *)

let test_jaccard_basics () =
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Independence.jaccard [] []);
  Alcotest.(check (float 1e-9)) "identical" 1.0
    (Independence.jaccard [ "a"; "b" ] [ "a"; "b" ]);
  Alcotest.(check (float 1e-9)) "disjoint" 0.0
    (Independence.jaccard [ "a" ] [ "b" ]);
  Alcotest.(check (float 1e-9)) "one of three" (1.0 /. 3.0)
    (Independence.jaccard [ "a"; "b" ] [ "a"; "c" ]);
  (* multiset: duplicates matter *)
  Alcotest.(check (float 1e-9)) "multiset" 0.5
    (Independence.jaccard [ "a"; "a" ] [ "a" ])

let prop_jaccard_symmetric =
  QCheck.Test.make ~name:"jaccard symmetric"
    QCheck.(pair (list (string_of_size Gen.(int_range 1 3)))
              (list (string_of_size Gen.(int_range 1 3))))
    (fun (a, b) ->
      Float.abs (Independence.jaccard a b -. Independence.jaccard b a)
      < 1e-9)

let prop_jaccard_bounded =
  QCheck.Test.make ~name:"jaccard in [0,1]"
    QCheck.(pair (list (string_of_size Gen.(int_range 1 3)))
              (list (string_of_size Gen.(int_range 1 3))))
    (fun (a, b) ->
      let j = Independence.jaccard a b in
      j >= 0.0 && j <= 1.0)

let prop_jaccard_reflexive =
  QCheck.Test.make ~name:"jaccard reflexive"
    QCheck.(list (string_of_size Gen.(int_range 1 3)))
    (fun a -> Independence.jaccard a a = 1.0)

let test_reuse_reproduces_paper_ordering () =
  let reuse =
    Independence.shared_constraint_reuse (Independence.analyze Registry.all)
  in
  let get m = List.assoc m reuse in
  check_bool "monitor fully reuses exclusion" true (get "monitor" > 0.99);
  check_bool "serializer fully reuses exclusion" true
    (get "serializer" > 0.99);
  check_bool "csp fully reuses exclusion" true (get "csp" > 0.99);
  check_bool "pathexpr rewrites exclusion" true (get "pathexpr" < 0.7);
  check_bool "monitor beats pathexpr" true (get "monitor" > get "pathexpr")

(* ------------------------------------------------------------------ *)
(* Modularity (E5)                                                     *)

let test_modularity_ordering () =
  let rows = Modularity.analyze Registry.all in
  let score m =
    (List.find (fun r -> r.Modularity.mechanism = m) rows).Modularity.score
  in
  check_bool "serializer enforces structure" true (score "serializer" > 0.9);
  check_bool "csp enforces structure" true (score "csp" > 0.9);
  check_bool "pathexpr scores worst of the paper's three" true
    (score "pathexpr" < score "monitor"
    && score "pathexpr" < score "serializer")

let test_pathexpr_needs_sync_procedures () =
  let rows = Modularity.analyze Registry.all in
  let row m = List.find (fun r -> r.Modularity.mechanism = m) rows in
  check_bool "pathexpr has sync procedures" true
    ((row "pathexpr").Modularity.sync_procedures > 0);
  List.iter
    (fun m ->
      Alcotest.(check int)
        (m ^ " needs no sync procedures")
        0
        (row m).Modularity.sync_procedures)
    [ "semaphore"; "monitor"; "serializer"; "csp" ]

(* ------------------------------------------------------------------ *)
(* Conformance plumbing (E6) — using a tiny synthetic registry so the
   test stays fast; the full run is exercised by the bench harness.     *)

let synthetic ~ok ~expect =
  { Registry.meta =
      Meta.make ~mechanism:"fake" ~problem:"fake"
        ~variant:(Printf.sprintf "ok=%b,expect=%b" ok expect)
        ~fragments:[] ~info_access:[] ~separation:Meta.Separated ();
    spec = Sync_problems.Fcfs_intf.spec;
    verify = (fun () -> if ok then Ok () else Error "synthetic failure");
    expect_conformant = expect }

let test_conformance_outcomes () =
  let results =
    Conformance.run
      [ synthetic ~ok:true ~expect:true; synthetic ~ok:false ~expect:true;
        synthetic ~ok:false ~expect:false; synthetic ~ok:true ~expect:false ]
  in
  let outcomes = List.map (fun r -> r.Conformance.outcome) results in
  (match outcomes with
  | [ Conformance.Conformant; Conformance.Nonconformant _;
      Conformance.Expected_anomaly _; Conformance.Unexpected_pass ] ->
    ()
  | _ -> Alcotest.fail "unexpected outcome classification");
  Alcotest.(check int) "two regressions" 2
    (List.length (Conformance.regressions results))

let test_scorecard_renders () =
  let card = Scorecard.build ~run_conformance:false ~axes:[] () in
  let s = Scorecard.to_string card in
  check_bool "mentions E3" true
    (Astring.String.is_infix ~affix:"expressive power" s);
  check_bool "a clean card is ok" true (Scorecard.ok card)

(* A card is not ok when any one section fails: a paper disagreement on
   its own is enough, as is one failing axis outcome. *)
let test_scorecard_ok () =
  let card = Scorecard.build ~run_conformance:false ~axes:[] () in
  check_bool "one discrepancy" false
    (Scorecard.ok
       { card with
         discrepancies = [ ("pathexpr", Info.Parameters, "constructed") ] });
  let failing =
    { Axis.name = "failing"; experiment = "E0"; title = "constructed";
      run =
        (fun ~full:_ ~progress:_ ->
          { Axis.ok = false; pp = ignore; json = Sync_metrics.Emit.Null }) }
  in
  check_bool "one failed axis" false
    (Scorecard.ok (Scorecard.build ~run_conformance:false ~axes:[ failing ] ()))

(* ------------------------------------------------------------------ *)
(* The axis registry and the committed-baseline lookup                 *)

module Emit = Sync_metrics.Emit
module Doc = Sync_metrics.Bench_doc

let test_axis_names () =
  Alcotest.(check (list string))
    "names unique" (List.sort_uniq compare Axis.names)
    (List.sort compare Axis.names);
  List.iter
    (fun name ->
      match Axis.find name with
      | Some a -> Alcotest.(check string) "found by name" name a.Axis.name
      | None -> Alcotest.failf "Axis.find %S" name)
    Axis.names;
  check_bool "unknown name" true (Axis.find "no-such-axis" = None)

(* The CLI answers an unknown axis with exit 2 and the registry's names,
   in registry order. *)
let test_axis_cli_choices () =
  let out = Filename.temp_file "bloom-eval-axis" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/bloom_eval.exe axis no-such-axis > %s 2>&1"
         (Filename.quote out))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) "exit code" 2 code;
  match Astring.String.cut ~sep:"axes: " (String.trim text) with
  | Some (_, listed) ->
    Alcotest.(check (list string))
      "choices" Axis.names
      (String.split_on_char ' ' listed)
  | None -> Alcotest.failf "no axis list in %S" text

(* The CLI answers a tier outside [Tier.all] (the swappable sites'
   "adaptive" label among them) with exit 2 and the selectable names. *)
let test_load_cli_tiers () =
  let out = Filename.temp_file "bloom-eval-load" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/bloom_eval.exe load --tier adaptive --problem bounded-buffer \
          --mechanism semaphore > %s 2>&1"
         (Filename.quote out))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) "exit code" 2 code;
  match Astring.String.cut ~sep:"(" (String.trim text) with
  | Some (_, listed) ->
    Alcotest.(check (list string))
      "choices"
      (List.map Sync_prims.Tier.name Sync_prims.Tier.all)
      (Astring.String.cuts ~sep:" | "
         (Astring.String.trim ~drop:(fun c -> c = ')') listed))
  | None -> Alcotest.failf "no tier list in %S" text

(* Every axis at its quick size, on 1 ms windows, run once for the two
   document tests below. The grids are real multi-domain loads, so the
   run drops its priority first: the real-thread suites running
   alongside it must not be starved of CPU by a document check. *)
let quick_documents =
  lazy
    (ignore (Unix.nice 19);
     let saved = Option.value (Sys.getenv_opt "SYNC_LOAD_MS") ~default:"" in
     Unix.putenv "SYNC_LOAD_MS" "1";
     Fun.protect
       ~finally:(fun () -> Unix.putenv "SYNC_LOAD_MS" saved)
       (fun () ->
         List.map
           (fun (a : Axis.t) -> (a, (a.run ~full:false ~progress:ignore).Axis.json))
           Axis.all))

(* Each quick document names its experiment in its header. *)
let test_axis_documents () =
  List.iter
    (fun ((a : Axis.t), doc) ->
      match Doc.header "experiment" doc with
      | Some (Emit.Str e) -> Alcotest.(check string) a.name a.experiment e
      | _ -> Alcotest.failf "%s: no experiment in the header" a.name)
    (Lazy.force quick_documents)

(* The committed documents and the row counts they must keep. *)
let committed =
  [ ("BENCH_GRID.json", 426); ("BENCH_E23.json", 6 + 4);
    ("BENCH_E24.json", 24); ("BENCH_E52.json", 16) ]

(* One shape for every committed file and every quick axis document:
   the header fields are present, each row has exactly coords, metrics
   and status, every metric is a finite number, and no two rows share
   coords. *)
let test_one_shape () =
  let check name doc =
    Alcotest.(check (list string)) (name ^ " shape") [] (Doc.validate doc)
  in
  List.iter
    (fun (file, rows) ->
      let doc = Emit.parse_file (Filename.concat ".." file) in
      check file doc;
      Alcotest.(check int) (file ^ " rows") rows
        (List.length
           (Emit.to_list (Option.value ~default:Emit.Null (Emit.member "rows" doc)))))
    committed;
  List.iter
    (fun ((a : Axis.t), doc) -> check ("axis " ^ a.name) doc)
    (Lazy.force quick_documents)

(* The typed rows a tier cannot build or the engine does not offer, as
   the restricted-class (E25) and queue-lock (E23) grids committed
   them: the quick grid must produce exactly this set. *)
let pinned_unsupported =
  let strong =
    "FCFS grants need an arrival-order-assigning read-modify-write (ticket \
     fetch-and-add); atomic read/write registers only admit barging waits"
  in
  List.concat_map
    (fun p ->
      List.map
        (fun m -> ("rw", p, m, "semaphore.strong", strong))
        [ "semaphore"; "pathexpr" ])
    [ "bounded-buffer"; "fcfs"; "readers-writers" ]
  @ List.concat_map
      (fun t ->
        [ (t, "bounded-buffer", "epoch", "load-target",
           "no epoch target for bounded-buffer");
          (t, "readers-writers", "eventcount", "load-target",
           "no eventcount target for readers-writers") ])
      [ "mcs"; "clh"; "ticket" ]

let unsupported_rows doc =
  let str = function Some (Emit.Str s) -> s | _ -> "?" in
  Emit.to_list (Option.value ~default:Emit.Null (Emit.member "rows" doc))
  |> List.filter_map (fun r ->
         match Option.bind (Emit.member "status" r) (Emit.member "unsupported") with
         | Some u ->
           Some
             ( str (Doc.coord "tier" r), str (Doc.coord "problem" r),
               str (Doc.coord "mechanism" r), str (Emit.member "feature" u),
               str (Emit.member "reason" u) )
         | None -> None)
  |> List.sort compare

let test_pinned_unsupported () =
  let _, grid =
    List.find (fun ((a : Axis.t), _) -> a.name = "grid") (Lazy.force quick_documents)
  in
  let show = List.map (fun (t, p, m, f, r) -> String.concat " " [ t; p; m; f; r ]) in
  Alcotest.(check (list string))
    "quick grid" (show (List.sort compare pinned_unsupported))
    (show (unsupported_rows grid));
  Alcotest.(check (list string))
    "committed grid" (show (List.sort compare pinned_unsupported))
    (show (unsupported_rows (Emit.parse_file "../BENCH_GRID.json")))

(* A row with more domains than the box recommends says so in its
   coords; one at the recommended count does not. *)
let test_oversubscribed () =
  let n = Domain.recommended_domain_count () in
  let row domains =
    Cell.row_doc
      { Cell.tier = `Default; problem = "fcfs"; mechanism = "monitor"; domains;
        cell =
          { Cell.status = Cell.Supported; throughput_per_s = 0.; p50_ns = 0;
            p99_ns = 0; summary = None } }
  in
  Alcotest.(check bool) "at the recommended count" false
    (List.mem_assoc "oversubscribed" (row n).coords);
  Alcotest.(check bool) "one past it" true
    (List.assoc_opt "oversubscribed" (row (n + 1)).coords = Some (Emit.Bool true))

let test_baseline_finds_sanity_cells () =
  List.iter
    (fun (g : Baseline.group) ->
      let doc =
        match Doc.load (Filename.concat ".." g.file) with
        | Ok d -> d
        | Error e -> Alcotest.fail e
      in
      List.iter
        (fun p ->
          match
            Doc.lookup doc ~coords:(Baseline.coords p) ~metric:"throughput_per_s"
          with
          | Some t when t > 0. -> ()
          | _ -> Alcotest.failf "%s: %s not found" g.file (Baseline.id p))
        g.probes)
    Baseline.sanity

(* Coordinates match by value (4 and 4.0 are one domain count); an
   unsupported row never matches; the lookup reads the first hit. *)
let test_baseline_select () =
  let doc =
    Emit.parse
      {|{"header": {}, "rows": [
          {"coords": {"k": "a", "d": 4}, "metrics": {},
           "status": {"unsupported": {"feature": "f", "reason": "r"}}},
          {"coords": {"k": "a", "d": 4.0}, "metrics": {"v": 1},
           "status": "supported"},
          {"coords": {"k": "a", "d": 4}, "metrics": {"v": 2},
           "status": "supported"}]}|}
  in
  let coords = [ ("k", Emit.Str "a"); ("d", Emit.Int 4) ] in
  Alcotest.(check int) "supported rows, numbers by value"
    2 (List.length (Doc.select doc ~coords));
  Alcotest.(check (option (float 0.))) "first hit" (Some 1.)
    (Doc.lookup doc ~coords ~metric:"v");
  Alcotest.(check int) "a coordinate no row has" 0
    (List.length (Doc.select doc ~coords:(("tier", Emit.Str "fast") :: coords)))

let test_drift_gate () =
  let verdicts cells =
    List.map (fun (p : Baseline.pair) -> p.ok) (Baseline.drift ~factor:5. cells)
  in
  Alcotest.(check (list bool)) "0/0 live pair fails" [ false ]
    (verdicts [ ("a", 0., 1e6); ("b", 0., 2e6) ]);
  Alcotest.(check (list bool)) "non-finite baseline fails" [ false ]
    (verdicts [ ("a", 1e6, Float.nan); ("b", 2e6, 2e6) ]);
  Alcotest.(check (list bool)) "normal pair passes" [ true ]
    (verdicts [ ("a", 1e6, 1e6); ("b", 2e6, 2.2e6) ]);
  Alcotest.(check (list bool)) "6x drift fails" [ false ]
    (verdicts [ ("a", 6e6, 1e6); ("b", 1e6, 1e6) ])

let () =
  Alcotest.run "eval"
    [ ( "registry",
        [ Alcotest.test_case "ids unique" `Quick test_registry_ids_unique;
          Alcotest.test_case "covers problem x mechanism" `Quick
            test_registry_covers_matrix;
          Alcotest.test_case "fragments cover constraints" `Quick
            test_fragments_cover_spec_constraints;
          Alcotest.test_case "info access covers spec info" `Quick
            test_info_access_covers_spec_info;
          Alcotest.test_case "documented anomalies" `Quick
            test_expected_anomalies_are_exactly_two ] );
      ( "expressiveness",
        [ Alcotest.test_case "agrees with paper" `Quick
            test_matrix_agrees_with_paper;
          Alcotest.test_case "pathexpr parameters unsupported" `Quick
            test_matrix_pathexpr_parameters_unsupported;
          Alcotest.test_case "csp all direct" `Quick test_matrix_csp_all_direct
        ] );
      ( "independence",
        [ Alcotest.test_case "jaccard basics" `Quick test_jaccard_basics;
          Testutil.qcheck_case prop_jaccard_symmetric;
          Testutil.qcheck_case prop_jaccard_bounded;
          Testutil.qcheck_case prop_jaccard_reflexive;
          Alcotest.test_case "reuse reproduces paper ordering" `Quick
            test_reuse_reproduces_paper_ordering ] );
      ( "modularity",
        [ Alcotest.test_case "ordering" `Quick test_modularity_ordering;
          Alcotest.test_case "pathexpr sync procedures" `Quick
            test_pathexpr_needs_sync_procedures ] );
      ( "conformance",
        [ Alcotest.test_case "outcome classification" `Quick
            test_conformance_outcomes;
          Alcotest.test_case "scorecard renders" `Quick test_scorecard_renders;
          Alcotest.test_case "scorecard ok" `Quick test_scorecard_ok ] );
      ( "axis",
        [ Alcotest.test_case "registry names" `Quick test_axis_names;
          Alcotest.test_case "cli choices" `Quick test_axis_cli_choices;
          Alcotest.test_case "load tier choices" `Quick test_load_cli_tiers;
          Alcotest.test_case "documents carry experiment" `Slow
            test_axis_documents;
          Alcotest.test_case "one document shape" `Slow test_one_shape;
          Alcotest.test_case "pinned unsupported rows" `Slow
            test_pinned_unsupported;
          Alcotest.test_case "oversubscribed rows" `Quick test_oversubscribed ] );
      ( "baseline",
        [ Alcotest.test_case "finds sanity cells" `Quick
            test_baseline_finds_sanity_cells;
          Alcotest.test_case "coordinate-subset select" `Quick
            test_baseline_select;
          Alcotest.test_case "drift gate" `Quick test_drift_gate ] ) ]
