exception Unsupported of string

type wrapped = {
  prologue : unit -> unit;
  epilogue : unit -> unit;
  undo : unit -> unit;
}

type table = (string * wrapped list) list

(* Mutable accumulation: each op with its wrappers in reverse declaration
   order, the ops in reverse first-appearance order, plus per-declaration
   duplicate detection. A spec names a handful of ops, so lists searched
   by [String.equal] beat hashing, which every compile (one per DPOR
   schedule of a path scenario) would pay. *)
type acc = {
  mutable ops : (string * wrapped list ref) list;
  mutable in_decl : string list; (* ops seen in the current declaration *)
}

let rec find name = function
  | [] -> None
  | (op, ws) :: rest ->
    if String.equal op name then Some ws else find name rest

let add acc name w =
  if List.exists (String.equal name) acc.in_decl then
    raise
      (Unsupported
         (Printf.sprintf
            "operation %S appears twice in one path declaration" name));
  acc.in_decl <- name :: acc.in_decl;
  match find name acc.ops with
  | None -> acc.ops <- (name, ref [ w ]) :: acc.ops
  | Some ws -> ws := w :: !ws

(* [undo] must return exactly the tokens [pro] consumed — the inverse of
   the prologue, NOT the epilogue: in a sequence the epilogue V's the
   {e next} link, which would advance the path as if the operation had
   completed, while undo V's the link the prologue P'd, restoring the
   state to before the operation started. *)
let rec comp (engine : Engine.t) env acc e ~pro ~epi ~undo =
  match e with
  | Ast.Op name -> add acc name { prologue = pro; epilogue = epi; undo }
  | Ast.Seq es ->
    let n = List.length es in
    let links = Array.init (n - 1) (fun _ -> engine.make_sem 0) in
    List.iteri
      (fun i e ->
        let pro = if i = 0 then pro else links.(i - 1).Engine.p in
        let epi = if i = n - 1 then epi else links.(i).Engine.v in
        let undo = if i = 0 then undo else links.(i - 1).Engine.v in
        comp engine env acc e ~pro ~epi ~undo)
      es
  | Ast.Sel es -> List.iter (fun e -> comp engine env acc e ~pro ~epi ~undo) es
  | Ast.Conc e ->
    let m = engine.make_sem 1 in
    let active = ref 0 in
    (* [m] is internal bookkeeping (the first-in/last-out bracket), not a
       cancellation point: its P/V run masked so an injected abort cannot
       lose the bracket token. The group-level [pro] IS the acquire wait
       — it stays injectable, with local compensation (it blocks while
       holding [m], so an abort must put the bracket back itself). *)
    let mask = Sync_platform.Fault.mask in
    let pro' () =
      mask m.Engine.p;
      incr active;
      (if !active = 1 then
         match pro () with
         | () -> ()
         | exception e ->
           decr active;
           mask m.Engine.v;
           raise e);
      mask m.Engine.v
    in
    let epi' () =
      mask m.Engine.p;
      decr active;
      if !active = 0 then epi ();
      mask m.Engine.v
    in
    let undo' () =
      mask m.Engine.p;
      decr active;
      if !active = 0 then undo ();
      mask m.Engine.v
    in
    comp engine env acc e ~pro:pro' ~epi:epi' ~undo:undo'
  | Ast.Bounded _ ->
    raise
      (Unsupported
         "a numeric bound is only allowed as the entire body of a path \
          declaration")
  | Ast.Pred (name, e) -> (
    match engine.pred_gate with
    | None ->
      raise
        (Unsupported
           (Printf.sprintf
              "predicate [%s]: engine %S has no predicate support" name
              engine.name))
    | Some gate -> (
      match List.assoc_opt name env with
      | None ->
        raise (Unsupported (Printf.sprintf "unbound predicate %S" name))
      | Some f ->
        comp engine env acc e
          ~pro:(fun () ->
            gate f;
            pro ())
          ~epi ~undo))

let compile_decl engine env acc decl =
  acc.in_decl <- [];
  let bound, body =
    match decl with Ast.Bounded (n, e) -> (n, e) | e -> (1, e)
  in
  let s = engine.Engine.make_sem bound in
  comp engine env acc body ~pro:s.Engine.p ~epi:s.Engine.v ~undo:s.Engine.v

let compile ~engine ~env spec =
  let acc = { ops = []; in_decl = [] } in
  List.iter (compile_decl engine env acc) spec;
  List.rev_map (fun (name, ws) -> (name, List.rev !ws)) acc.ops
