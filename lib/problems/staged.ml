(* Staged scenarios on the deterministic runtime.

   A staged driver places contenders in a known state — a holder inside,
   requests parked in arrival order — before it releases anything. Inside
   a [Detrt] run "parked" is observable exactly: [Detrt.await_quiescence]
   returns once no other task can move. The drivers' bodies therefore run
   inside a run, and the exported checks run them once per seed below.
   A seed picks the interleaving of everything the staging leaves free
   exactly as [Detsched.run_random ~seed] does, so a failing seed replays
   under the explorer. *)

open Sync_platform

let seeds = List.init 8 Fun.id

(* One run of [body] under the seeded random schedule; returns the
   body's result. *)
let run ~seed body =
  let g = Prng.make (Int64.of_int seed) in
  let result = ref None in
  ignore
    (Detrt.run
       ~choose:(fun alts -> Prng.int g (Array.length alts))
       (fun () -> result := Some (body ())));
  Option.get !result

(* The first failure over all seeds. A run that deadlocks after the body
   returned an [Error] (a failed check leaves its contenders stranded)
   reports that verdict; any other escape is a failure of its own,
   tagged with its seed. *)
let check body =
  let one seed =
    let verdict = ref None in
    match run ~seed (fun () -> verdict := Some (body ())) with
    | () -> Option.get !verdict
    | exception e -> (
      match (!verdict, e) with
      | Some (Error _ as v), Detrt.Deadlock _ -> v
      | _ -> Error (Printf.sprintf "seed %d: %s" seed (Printexc.to_string e)))
  in
  List.fold_left
    (fun acc seed -> match acc with Ok () -> one seed | Error _ -> acc)
    (Ok ()) seeds

(* A staged outcome (who was granted first, was the writer starved) is a
   property of the mechanism, not of the schedule: every seed must agree. *)
let outcome body =
  match List.map (fun seed -> run ~seed body) seeds with
  | first :: rest when List.for_all (( = ) first) rest -> first
  | _ -> failwith "staged outcome differs between seeds"
