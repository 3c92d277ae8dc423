(* E23: the scalable-lock tier, measured. Two grids in one axis:

   - the {e queue grid}: mechanism x problem load targets rebuilt with
     every platform mutex a local-spin queue lock (MCS / CLH /
     proportional-backoff ticket), driven exactly like the E25
     hierarchy cells ({!Cell.grid}); a pair the workload engine does
     not offer is a typed [Unsupported] row;

   - the {e epoch rows}: the readers-writers database on the
     {!Sync_problems.Rw_epoch} read-mostly path at increasing domain
     counts, with closed-loop think time so the comparison measures
     reader-entry scalability rather than how many times one core can
     run the same critical section. The committed rows are what the
     scaling-sanity CI gate checks for monotonic read throughput. *)

open Sync_metrics
open Sync_workload
module Queuelock = Sync_prims.Queuelock

type epoch_row = {
  e_mechanism : string;
  e_domains : int;
  e_cell : Cell.t;
  e_read_per_s : float;
}

type t = { queue : Cell.row list; epoch : epoch_row list }

type spec = {
  kinds : Queuelock.kind list;
  problems : string list;
  mechanisms : string list;
  domains : int list;
  epoch_mechanisms : string list;
  epoch_domains : int list;
  think_us : int;
  read_pct : int;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
}

(* The default grid keeps one mechanism per construct family plus the
   two partial-coverage rows that exercise the typed-unsupported path
   (eventcount has no readers-writers target; epoch has nothing but).
   The epoch rows carry a think time because on a host with few cores a
   think-free closed loop saturates at one worker and the domain axis
   measures nothing. *)
let default_spec () =
  { kinds = Queuelock.all;
    problems = [ "bounded-buffer"; "readers-writers" ];
    mechanisms = [ "semaphore"; "monitor"; "ccr"; "eventcount"; "epoch" ];
    domains = [ 1; 4 ];
    epoch_mechanisms = [ "epoch"; "semaphore" ];
    epoch_domains = [ 1; 2; 4 ];
    think_us = 500;
    read_pct = 95;
    duration_ms = Loadgen.duration_from_env ~default:150;
    warmup_ms = 50;
    seed = 42 }

let config spec =
  { Loadgen.default_config with
    duration_ms = spec.duration_ms; warmup_ms = spec.warmup_ms;
    seed = spec.seed }

let epoch_cell spec ~mechanism ~domains =
  let cell =
    Cell.measure
      ~params:{ Target.default_params with read_pct = spec.read_pct }
      ~problem:"readers-writers" ~mechanism
      { (config spec) with workers = domains; think_us = spec.think_us }
  in
  let read_per_s =
    match cell.Cell.summary with
    | Some s -> (
      match List.find_opt (fun o -> o.Summary.op = "read") s.Summary.per_op with
      | Some o ->
        float_of_int o.Summary.count *. 1e9
        /. Int64.to_float s.Summary.elapsed_ns
      | None -> 0.)
    | None -> 0.
  in
  { e_mechanism = mechanism; e_domains = domains; e_cell = cell;
    e_read_per_s = read_per_s }

let run ?progress_queue ?(progress_epoch = ignore) spec =
  let queue =
    Cell.grid ?progress:progress_queue
      ~tiers:(List.map (fun k -> `Queue k) spec.kinds)
      ~problems:spec.problems ~mechanisms:(fun _ -> spec.mechanisms)
      ~domains:spec.domains (config spec)
  in
  let epoch =
    List.concat_map
      (fun mechanism ->
        List.map
          (fun domains ->
            let r = epoch_cell spec ~mechanism ~domains in
            progress_epoch r;
            r)
          spec.epoch_domains)
      spec.epoch_mechanisms
  in
  { queue; epoch }

let all_ok t =
  List.for_all (fun (r : Cell.row) -> Cell.ok r.cell) t.queue
  && List.for_all (fun r -> Cell.ok r.e_cell) t.epoch

(* The tentpole claim, checked on measured rows: the epoch path's read
   throughput strictly increases with the domain count. Only the
   ["epoch"] rows are held to it — reference mechanisms ride along for
   the side-by-side, serializing as they please. *)
let epoch_monotonic t =
  let rows =
    List.filter
      (fun r -> r.e_mechanism = "epoch" && r.e_cell.Cell.status = Supported)
      t.epoch
    |> List.sort (fun a b -> compare a.e_domains b.e_domains)
  in
  match rows with
  | [] | [ _ ] -> false
  | first :: rest ->
    let rec strictly_up prev = function
      | [] -> true
      | r :: rest ->
        r.e_read_per_s > prev.e_read_per_s && strictly_up r rest
    in
    strictly_up first rest

(* The epoch rows run on the default tier, which is what tells them
   apart from the queue-lock rows; their think time and read share are
   header params. *)
let epoch_doc r =
  Cell.doc
    ~extra:[ ("read_per_s", r.e_read_per_s) ]
    [ ("tier", Emit.Str "default"); ("problem", Emit.Str "readers-writers");
      ("mechanism", Emit.Str r.e_mechanism); ("domains", Emit.Int r.e_domains) ]
    r.e_cell

let to_json spec t =
  Bench_doc.document ~experiment:"E23"
    ~description:
      "scalable-lock tier: mechanism x problem targets on MCS/CLH/ticket \
       queue locks (absent pairs are typed unsupported cells), plus the \
       epoch read-mostly readers-writers path at increasing domain counts \
       with closed-loop think time"
    ~params:
      ([ ("mode", Emit.Str "closed"); ("backend", Emit.Str "domain");
         ("duration_ms", Emit.Int spec.duration_ms);
         ("warmup_ms", Emit.Int spec.warmup_ms); ("seed", Emit.Int spec.seed) ]
      @ [ ("think_us", Emit.Int spec.think_us);
          ("read_pct", Emit.Int spec.read_pct);
          ("kinds", Emit.strings (List.map Queuelock.kind_name spec.kinds));
          ("problems", Emit.strings spec.problems);
          ("mechanisms", Emit.strings spec.mechanisms);
          ("epoch_mechanisms", Emit.strings spec.epoch_mechanisms);
          ("domain_counts", Emit.ints spec.domains);
          ("epoch_domain_counts", Emit.ints spec.epoch_domains) ])
    ~summary:[ ("epoch_monotonic", Emit.Bool (epoch_monotonic t)) ]
    (List.map Cell.row_doc t.queue @ List.map epoch_doc t.epoch)
