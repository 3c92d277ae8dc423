exception Unsupported = Compile.Unsupported

exception Unknown_operation of string

type engine_kind = [ `Semaphore | `Gate ]

type t = {
  spec : Ast.spec;
  table : Compile.table;
  engine : Engine.t;
}

let compile ?(engine = `Semaphore) ?(env = []) spec =
  let engine =
    match engine with `Semaphore -> Engine.semaphore () | `Gate -> Engine.gate ()
  in
  { spec; table = Compile.compile ~engine ~env spec; engine }

let of_string ?engine ?env src = compile ?engine ?env (Parser.parse src)

let abort_policy : Sync_platform.Fault.abort_policy = `Rollback

(* A string walk, not [List.assoc]: no polymorphic compare per call. *)
let rec wrappers_of op = function
  | [] -> raise (Unknown_operation op)
  | (name, ws) :: rest ->
    if String.equal name op then ws else wrappers_of op rest

let run t op body =
  let wrappers = wrappers_of op t.table in
  let mark = Sync_trace.Probe.mark () in
  (* Roll back on abort: whether a prologue aborts partway (e.g. while
     blocked on the second of several path counters) or the body raises,
     return the tokens the completed prologues consumed — newest first —
     so the expression's state is as if the operation never started.
     [entered] is accumulated in reverse, which is the unwind order.
     Prologues are the acquire phase and stay injectable; epilogues
     (commit) and undo (recovery) run masked — a crash there cannot be
     compensated, only completed. *)
  let entered = ref [] in
  let unwind () =
    Sync_platform.Fault.mask (fun () ->
        List.iter (fun w -> w.Compile.undo ()) !entered;
        t.engine.Engine.poke ())
  in
  (try
     List.iter
       (fun w ->
         w.Compile.prologue ();
         entered := w :: !entered)
       wrappers
   with e ->
     unwind ();
     raise e);
  match body () with
  | v ->
    Sync_platform.Fault.mask (fun () ->
        List.iter (fun w -> w.Compile.epilogue ()) wrappers;
        t.engine.Engine.poke ());
    (* From the first path counter's lock Acquire to the last one's
       Hold end. *)
    ignore
      (Sync_trace.Probe.span_marked Op ~site:"pathexpr.op" ~mark ~arg:0);
    v
  | exception e ->
    unwind ();
    raise e

let ops t = List.map fst t.table

let spec t = t.spec

let engine_name t = t.engine.Engine.name
