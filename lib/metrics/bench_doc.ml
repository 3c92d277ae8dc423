type status =
  | Supported
  | Unsupported of { feature : string; reason : string }
  | Failed of string

type row = {
  coords : (string * Emit.t) list;
  metrics : (string * float) list;
  status : status;
}

let row ?(status = Supported) coords metrics = { coords; metrics; status }

let op_fields =
  [ "count"; "failures"; "mean_ns"; "min_ns"; "p50_ns"; "p90_ns"; "p95_ns";
    "p99_ns"; "p999_ns"; "max_ns" ]

let per_op (s : Summary.t) =
  let ints = List.map float_of_int in
  List.concat_map
    (fun (o : Summary.op_stats) ->
      List.map2
        (fun field v -> (o.op ^ "." ^ field, v))
        op_fields
        (ints [ o.count; o.failures ] @ [ o.mean_ns ]
        @ ints
            [ o.min_ns; o.p50_ns; o.p90_ns; o.p95_ns; o.p99_ns; o.p999_ns;
              o.max_ns ]))
    s.per_op

let status_json = function
  | Supported -> Emit.Str "supported"
  | Unsupported { feature; reason } ->
    Emit.Obj
      [ ( "unsupported",
          Emit.Obj [ ("feature", Emit.Str feature); ("reason", Emit.Str reason) ]
        ) ]
  | Failed e -> Emit.Obj [ ("failed", Emit.Str e) ]

let row_json r =
  Emit.Obj
    [ ("coords", Emit.Obj r.coords);
      ("metrics", Emit.Obj (List.map (fun (k, v) -> (k, Emit.Float v)) r.metrics));
      ("status", status_json r.status) ]

let document ~experiment ~description ?(params = []) ?(summary = []) rows =
  Emit.Obj
    [ ( "header",
        Emit.Obj
          [ ("experiment", Emit.Str experiment);
            ("description", Emit.Str description);
            ("ocaml", Emit.Str Sys.ocaml_version);
            ("recommended_domains", Emit.Int (Domain.recommended_domain_count ()));
            ("params", Emit.Obj params); ("summary", Emit.Obj summary) ] );
      ("rows", Emit.List (List.map row_json rows)) ]

(* -- reading -------------------------------------------------------- *)

let header_fields =
  [ "experiment"; "description"; "ocaml"; "recommended_domains"; "params";
    "summary" ]

let rows doc = Emit.to_list (Option.value ~default:Emit.Null (Emit.member "rows" doc))

let status_of_json = function
  | Emit.Str "supported" -> Some Supported
  | Emit.Obj
      [ ( "unsupported",
          Emit.Obj [ ("feature", Emit.Str feature); ("reason", Emit.Str reason) ] ) ]
    ->
    Some (Unsupported { feature; reason })
  | Emit.Obj [ ("failed", Emit.Str e) ] -> Some (Failed e)
  | _ -> None

let validate doc =
  let header_errors =
    match Emit.member "header" doc with
    | Some (Emit.Obj _ as h) ->
      List.filter_map
        (fun k ->
          if Emit.member k h = None then Some ("header has no " ^ k) else None)
        header_fields
    | _ -> [ "no header object" ]
  in
  let rows_errors =
    match Emit.member "rows" doc with
    | Some (Emit.List rs) ->
      List.concat
        (List.mapi
           (fun i r ->
             let at fmt = Printf.ksprintf (Printf.sprintf "row %d: %s" i) fmt in
             match r with
             | Emit.Obj [ ("coords", Emit.Obj _); ("metrics", Emit.Obj ms); ("status", s) ]
               ->
               List.filter_map
                 (fun (k, v) ->
                   match Emit.number v with
                   | Some x when Float.is_finite x -> None
                   | _ -> Some (at "metric %s is not a finite number" k))
                 ms
               @ if status_of_json s = None then [ at "malformed status" ] else []
             | _ -> [ at "keys are not exactly coords, metrics, status" ])
           rs)
    | _ -> [ "no rows list" ]
  in
  let coords =
    List.filter_map (Emit.member "coords") (rows doc)
    |> List.map (Emit.to_string ~pretty:false)
  in
  let duplicates =
    List.filteri (fun i c -> List.mem c (List.filteri (fun j _ -> j < i) coords)) coords
    |> List.map (( ^ ) "duplicate coords ")
  in
  header_errors @ rows_errors @ duplicates

let load file =
  match Emit.parse_file file with
  | exception Sys_error e -> Error e
  | exception Emit.Parse_error e -> Error (file ^ ": " ^ e)
  | doc -> (
    match validate doc with
    | [] -> Ok doc
    | e :: _ -> Error (file ^ ": " ^ e))

let header key doc = Option.bind (Emit.member "header" doc) (Emit.member key)

let field group key r = Option.bind (Emit.member group r) (Emit.member key)

let coord = field "coords"

let metric key r = Option.bind (field "metrics" key r) Emit.number

let same a b =
  match (Emit.number a, Emit.number b) with
  | Some x, Some y -> x = y
  | _ -> a = b

let select doc ~coords =
  List.filter
    (fun r ->
      Emit.member "status" r = Some (Emit.Str "supported")
      && List.for_all
           (fun (k, v) ->
             match coord k r with Some c -> same c v | None -> false)
           coords)
    (rows doc)

let lookup doc ~coords ~metric:m =
  match select doc ~coords with r :: _ -> metric m r | [] -> None

(* -- rendering ------------------------------------------------------ *)

(* Per-op fields stay in the document; the human table leaves them out. *)
let per_op_field key =
  match String.rindex_opt key '.' with
  | Some i -> List.mem (String.sub key (i + 1) (String.length key - i - 1)) op_fields
  | None -> false

let text = function
  | Emit.Str s -> s
  | v -> (
    match Emit.number v with
    | Some x when Float.is_integer x || Float.abs x >= 1000. ->
      Printf.sprintf "%.0f" x
    | Some x -> Printf.sprintf "%.4g" x
    | None -> Emit.to_string ~pretty:false v)

let status_string = function
  | Supported -> "ok"
  | Unsupported { feature; _ } -> "unsupported: " ^ feature
  | Failed e -> "FAILED: " ^ e

let status_text r =
  match Option.bind (Emit.member "status" r) status_of_json with
  | Some s -> status_string s
  | None -> "?"

let keys field rows =
  List.fold_left
    (fun acc r ->
      match Emit.member field r with
      | Some (Emit.Obj fs) ->
        acc @ List.filter (fun k -> not (List.mem k acc)) (List.map fst fs)
      | _ -> acc)
    [] rows

let pp ppf doc =
  let rows = rows doc in
  let coords = keys "coords" rows in
  let metrics = List.filter (fun k -> not (per_op_field k)) (keys "metrics" rows) in
  let cells group r =
    List.map (fun k -> Option.fold ~none:"-" ~some:text (field group k r))
  in
  let table =
    (coords @ metrics @ [ "status" ])
    :: List.map
         (fun r -> cells "coords" r coords @ cells "metrics" r metrics @ [ status_text r ])
         rows
  in
  (* The last column (the status) is not padded. *)
  let widths =
    List.fold_left
      (fun ws line -> List.map2 (fun w c -> max w (String.length c)) ws line)
      (List.map (fun _ -> 0) (List.hd table))
      table
    |> List.mapi (fun i w -> if i = List.length coords + List.length metrics then 0 else w)
  in
  List.iter
    (fun line ->
      Format.fprintf ppf "  %s@."
        (String.concat "  " (List.map2 (Printf.sprintf "%-*s") widths line)))
    table;
  match header "summary" doc with
  | Some (Emit.Obj (_ :: _ as fs)) ->
    List.iter (fun (k, v) -> Format.fprintf ppf "  %s: %s@." k (text v)) fs
  | _ -> ()

let row_line r =
  String.concat "  "
    (List.map (fun (_, v) -> text v) r.coords
    @ List.filter_map
        (fun (k, v) ->
          if per_op_field k then None else Some (k ^ " " ^ text (Emit.Float v)))
        r.metrics
    @ [ status_string r.status ])
