(* Result documents. One row per workload run: the correctness verdict,
   the operation counts, named metrics with units, and the raw per-round
   detail behind them. [result_line] is the one-line summary printed
   last on stdout; [write] stores the whole document with its box
   header for [compare]. *)

module Emit = Sync_metrics.Emit

type metric = { name : string; value : float; unit_ : string }

type row = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  checks : string list;  (** the correctness checks that failed *)
  windows : Emit.t;  (** rounds and windows the row was measured with *)
  metrics : metric list;
  detail : Emit.t;
}

let metric name unit_ value = { name; value; unit_ }

(* A metric that is not a finite number is a failed check: the result
   line can only carry numbers. *)
let row ~workload ~attempted ~failed ~checks ~windows ~metrics ~detail =
  let checks =
    checks
    @ List.filter_map
        (fun m ->
          if Float.is_finite m.value then None else Some (m.name ^ " is not a number"))
        metrics
  in
  { workload; correct = failed = 0 && checks = []; attempted; failed; checks;
    windows; metrics; detail }

let row_json r =
  Emit.Obj
    [ ("workload", Emit.Str r.workload);
      ("correct", Emit.Bool r.correct);
      ("attempted", Emit.Int r.attempted);
      ("failed", Emit.Int r.failed);
      ("checks", Emit.List (List.map (fun c -> Emit.Str c) r.checks));
      ("windows", r.windows);
      ( "metrics",
        Emit.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Emit.Obj
                   [ ("value", Emit.Float m.value); ("unit", Emit.Str m.unit_) ]
               ))
             r.metrics) );
      ("detail", r.detail) ]

let write path ~header rows =
  (match Filename.dirname path with
  | "." -> ()
  | d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755);
  Emit.write_file path
    (Emit.Obj [ ("header", header); ("rows", Emit.List (List.map row_json rows)) ])

(* Every digit the float carries: a time must never print identically
   on two runs just because it was rounded. *)
let full_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let result_line r =
  let b = Buffer.create 1024 in
  let str s = Emit.to_string (Emit.Str s) in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%s: {\"value\": %s, \"unit\": %s}" (str m.name)
        (full_float m.value) (str m.unit_))
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let print_table r =
  Printf.printf "== %s: %s (%d attempted, %d failed)\n" r.workload
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter (fun c -> Printf.printf "   check failed: %s\n" c) r.checks;
  List.iter
    (fun m -> Printf.printf "   %-40s %16.6g %s\n" m.name m.value m.unit_)
    r.metrics;
  flush stdout

(* -- reading documents back (compare, smoke) ------------------------ *)

let member_exn k v =
  match Emit.member k v with
  | Some x -> x
  | None -> raise (Emit.Parse_error ("missing field " ^ k))

let to_int v = int_of_float (Option.value (Emit.number v) ~default:0.0)

let row_of_json v =
  let metrics =
    match member_exn "metrics" v with
    | Emit.Obj fields ->
      List.map
        (fun (name, m) ->
          { name;
            value = Option.value (Emit.number (member_exn "value" m)) ~default:nan;
            unit_ =
              (match member_exn "unit" m with Emit.Str u -> u | _ -> "") })
        fields
    | _ -> []
  in
  { workload =
      (match member_exn "workload" v with Emit.Str s -> s | _ -> "?");
    correct = member_exn "correct" v = Emit.Bool true;
    attempted = to_int (member_exn "attempted" v);
    failed = to_int (member_exn "failed" v);
    checks = [];
    windows = Emit.Null;
    metrics;
    detail = Emit.Null }

let read path =
  List.map row_of_json (Emit.to_list (member_exn "rows" (Emit.parse_file path)))
