open Sync_metrics

type t = {
  matrix : Expressiveness.t;
  discrepancies : (string * Sync_taxonomy.Info.kind * string) list;
  pairings : Independence.pairing list;
  reuse : (string * float) list;
  modularity : Modularity.row list;
  conformance : Conformance.result list;
  axes : (Axis.t * Axis.outcome) list;
}

let build ?(run_conformance = true) ~axes () =
  let entries = Registry.all in
  let matrix = Expressiveness.matrix entries in
  let pairings = Independence.analyze entries in
  { matrix;
    discrepancies = Expressiveness.agrees_with_paper matrix;
    pairings;
    reuse = Independence.shared_constraint_reuse pairings;
    modularity = Modularity.analyze entries;
    conformance = (if run_conformance then Conformance.run entries else []);
    axes =
      List.map
        (fun (a : Axis.t) -> (a, a.run ~full:false ~progress:ignore))
        axes }

let ok t =
  t.discrepancies = []
  && Conformance.regressions t.conformance = []
  && List.for_all (fun (_, (o : Axis.outcome)) -> o.ok) t.axes

let pp ppf t =
  Format.fprintf ppf "== E3: expressive power (mechanism x information) ==@.";
  Expressiveness.pp ppf t.matrix;
  (match t.discrepancies with
  | [] ->
    Format.fprintf ppf
      "matrix agrees with the paper's Section-5 conclusions@."
  | ds ->
    List.iter
      (fun (mech, kind, why) ->
        Format.fprintf ppf "DISCREPANCY %s/%s: %s@." mech
          (Sync_taxonomy.Info.to_string kind)
          why)
      ds);
  Format.fprintf ppf "@.== E4: constraint independence ==@.";
  Independence.pp_summary ppf t.reuse;
  Format.fprintf ppf "@.== E5: modularity ==@.";
  Modularity.pp ppf t.modularity;
  if t.conformance <> [] then begin
    Format.fprintf ppf "@.== E6: conformance (all solutions, all checks) ==@.";
    Conformance.pp ppf t.conformance;
    (match Conformance.regressions t.conformance with
    | [] -> Format.fprintf ppf "no regressions@."
    | rs -> Format.fprintf ppf "%d REGRESSION(S)@." (List.length rs))
  end;
  List.iter
    (fun ((a : Axis.t), (o : Axis.outcome)) ->
      Format.fprintf ppf "@.== %s: %s ==@." a.experiment a.title;
      o.pp ppf)
    t.axes

let to_string t = Format.asprintf "%a" pp t

(* -- machine-readable view ---------------------------------------- *)

let matrix_json m =
  Emit.List
    (List.map
       (fun (mechanism, cells) ->
         Emit.Obj
           [ ("mechanism", Emit.Str mechanism);
             ("cells",
              Emit.List
                (List.map
                   (fun (kind, cell) ->
                     Emit.Obj
                       [ ("information",
                          Emit.Str (Sync_taxonomy.Info.to_string kind));
                         ("level",
                          match cell.Expressiveness.level with
                          | None -> Emit.Null
                          | Some s ->
                            Emit.Str (Sync_taxonomy.Meta.support_to_string s));
                         ("evidence",
                          Emit.List
                            (List.map
                               (fun id -> Emit.Str id)
                               cell.Expressiveness.evidence)) ])
                   cells)) ])
       m)

let conformance_json results =
  Emit.List
    (List.map
       (fun (r : Conformance.result) ->
         let outcome, detail =
           match r.Conformance.outcome with
           | Conformance.Conformant -> ("conformant", Emit.Null)
           | Conformance.Nonconformant m -> ("nonconformant", Emit.Str m)
           | Conformance.Expected_anomaly m -> ("expected-anomaly", Emit.Str m)
           | Conformance.Unexpected_pass -> ("unexpected-pass", Emit.Null)
         in
         Emit.Obj
           [ ("solution",
              Emit.Str (Sync_taxonomy.Meta.id r.Conformance.entry.Registry.meta));
             ("outcome", Emit.Str outcome);
             ("detail", detail) ])
       results)

let to_json t =
  Emit.Obj
    [ ("expressiveness", matrix_json t.matrix);
      ("discrepancies",
       Emit.List
         (List.map
            (fun (mech, kind, why) ->
              Emit.Obj
                [ ("mechanism", Emit.Str mech);
                  ("information", Emit.Str (Sync_taxonomy.Info.to_string kind));
                  ("detail", Emit.Str why) ])
            t.discrepancies));
      ("independence",
       Emit.Obj
         [ ("pairings",
            Emit.List
              (List.map
                 (fun (p : Independence.pairing) ->
                   Emit.Obj
                     [ ("mechanism", Emit.Str p.Independence.mechanism);
                       ("problem", Emit.Str p.Independence.problem);
                       ("variant_a", Emit.Str p.Independence.variant_a);
                       ("variant_b", Emit.Str p.Independence.variant_b);
                       ("constraint", Emit.Str p.Independence.constraint_id);
                       ("similarity", Emit.Float p.Independence.similarity) ])
                 t.pairings));
           ("shared_constraint_reuse",
            Emit.Obj
              (List.map (fun (m, r) -> (m, Emit.Float r)) t.reuse)) ]);
      ("modularity",
       Emit.List
         (List.map
            (fun (r : Modularity.row) ->
              Emit.Obj
                [ ("mechanism", Emit.Str r.Modularity.mechanism);
                  ("enforced", Emit.Int r.Modularity.enforced);
                  ("separated", Emit.Int r.Modularity.separated);
                  ("blended", Emit.Int r.Modularity.blended);
                  ("sync_procedures", Emit.Int r.Modularity.sync_procedures);
                  ("aux_state_items", Emit.Int r.Modularity.aux_state_items);
                  ("score", Emit.Float r.Modularity.score) ])
            t.modularity));
      ("conformance", conformance_json t.conformance);
      ("axes",
       Emit.Obj
         (List.map
            (fun ((a : Axis.t), (o : Axis.outcome)) -> (a.name, o.json))
            t.axes)) ]
