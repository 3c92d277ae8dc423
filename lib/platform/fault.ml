exception Injected of string

type trigger = Never | Always | Nth of int | Every of int | Prob of float

type plan = {
  rules : (string * trigger) list;
  seed : int;
  (* Everything below is guarded by [guard]: sites may be hit from many
     threads. A raw stdlib mutex, not the platform facade, so that fault
     bookkeeping itself never becomes a scheduling point or a fault
     site. *)
  guard : Stdlib.Mutex.t;
  counts : (string, int) Hashtbl.t;
  mutable rng : Prng.t;
  mutable fired : int;
}

let plan ?(seed = 0) rules =
  { rules; seed; guard = Stdlib.Mutex.create ();
    counts = Hashtbl.create 16; rng = Prng.make (Int64.of_int seed);
    fired = 0 }

(* The installed plan. A plain ref: real-thread workloads install a plan
   once around the whole run, and deterministic runs are single-carrier,
   so installation itself needs no synchronization. *)
let current : plan option ref = ref None

let active () = Option.is_some !current

(* Per-actor mask. Release/commit-side code — everything that runs after
   an operation's effect has been committed, plus abort-recovery paths —
   runs under [mask], so injection can never strike where the mechanism
   has no way left to restore consistency. The moral equivalent of
   disabling thread cancellation inside a cleanup handler. Actors are
   keyed the same way the deadlock watchdog keys processes: virtual task
   id inside a deterministic run, OS thread id otherwise. *)
type actor = Vtask of int | Osthr of int

let task_provider : (unit -> int option) ref = ref (fun () -> None)

let set_task_provider f = task_provider := f

let self_actor () =
  match !task_provider () with
  | Some tid -> Vtask tid
  | None -> Osthr (Thread.id (Thread.self ()))

let mask_guard = Stdlib.Mutex.create ()

let mask_depth : (actor, int) Hashtbl.t = Hashtbl.create 16

let masked () =
  if !current = None then false
  else begin
    Stdlib.Mutex.lock mask_guard;
    let m = Hashtbl.mem mask_depth (self_actor ()) in
    Stdlib.Mutex.unlock mask_guard;
    m
  end

(* Depth is tracked only while a plan is installed: with none, nothing
   can fire and [masked] already answers [false], so [mask] is a plain
   call — no lock, no table, no closure. The price is an ordering rule
   (see the interface): a plan must be installed before the actors it
   targets enter masked regions, since a region entered with no plan
   left no depth for [site] to see. *)
let mask_tracked f =
  let k = self_actor () in
  Stdlib.Mutex.lock mask_guard;
  Hashtbl.replace mask_depth k
    (1 + Option.value (Hashtbl.find_opt mask_depth k) ~default:0);
  Stdlib.Mutex.unlock mask_guard;
  Fun.protect f ~finally:(fun () ->
      Stdlib.Mutex.lock mask_guard;
      (match Hashtbl.find_opt mask_depth k with
      | Some n when n > 1 -> Hashtbl.replace mask_depth k (n - 1)
      | _ -> Hashtbl.remove mask_depth k);
      Stdlib.Mutex.unlock mask_guard)

let mask f = match !current with None -> f () | Some _ -> mask_tracked f

let with_plan p f =
  let prev = !current in
  Stdlib.Mutex.lock p.guard;
  Hashtbl.reset p.counts;
  p.rng <- Prng.make (Int64.of_int p.seed);
  p.fired <- 0;
  Stdlib.Mutex.unlock p.guard;
  current := Some p;
  Fun.protect ~finally:(fun () -> current := prev) f

let site name =
  match !current with
  | None -> ()
  | Some _ when masked () -> ()
  (* Masked hits neither fire nor count: [Nth]/[Every] counters range
     over injectable hits only, so a plan's decisions do not shift when a
     mechanism routes more of its internals through masked regions. *)
  | Some p ->
    let fire =
      Stdlib.Mutex.lock p.guard;
      let n = (match Hashtbl.find_opt p.counts name with
               | Some n -> n
               | None -> 0) + 1 in
      Hashtbl.replace p.counts name n;
      let fire =
        match List.assoc_opt name p.rules with
        | None | Some Never -> false
        | Some Always -> true
        | Some (Nth k) -> n = k
        | Some (Every k) -> k > 0 && n mod k = 0
        | Some (Prob q) -> Prng.float p.rng 1.0 < q
      in
      if fire then p.fired <- p.fired + 1;
      Stdlib.Mutex.unlock p.guard;
      fire
    in
    if fire then raise (Injected name)

let hits p =
  Stdlib.Mutex.lock p.guard;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.counts [] in
  Stdlib.Mutex.unlock p.guard;
  List.sort compare l

let fired p =
  Stdlib.Mutex.lock p.guard;
  let n = p.fired in
  Stdlib.Mutex.unlock p.guard;
  n

type abort_policy = [ `Propagate | `Poison | `Rollback ]

let abort_policy_to_string = function
  | `Propagate -> "propagate"
  | `Poison -> "poison"
  | `Rollback -> "rollback"
