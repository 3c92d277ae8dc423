open Sync_platform
open Sync_problems

type op = { name : string; run : rng:Prng.t -> pid:int -> unit }

type selection = Cycle | Weighted of int array

module Tier = Sync_prims.Tier

type tier = Tier.t

type instance = {
  meta : Sync_taxonomy.Meta.t;
  tier : string;
  ops : op array;
  selection : selection;
  stop : unit -> unit;
}

type params = {
  capacity : int;
  work : int;
  read_pct : int;
  tracks : int;
  hot_pct : int;
}

let default_params =
  { capacity = 8; work = 0; read_pct = 90; tracks = 256; hot_pct = 0 }

let bb (module B : Bb_intf.S) tier p =
  (* The fast tier swaps the single-put/single-get self-checking ring
     for the Vyukov MPMC one: same bounded-FIFO contract and the same
     raise-on-violation integrity checks, but put and get touch
     disjoint atomics, so the resource itself never re-serializes what
     the thinner fast-path synchronizer lets through. *)
  let put, get =
    match tier with
    | `Default | `Prim _ | `Queue _ | `Adaptive ->
      let ring = Sync_resources.Ring.create ~work:p.work p.capacity in
      ( (fun ~pid:_ v -> Sync_resources.Ring.put ring v),
        fun ~pid:_ -> Sync_resources.Ring.get ring )
    | `Fast ->
      let ring = Sync_resources.Fastring.create ~work:p.work p.capacity in
      ( (fun ~pid:_ v -> Sync_resources.Fastring.put ring v),
        fun ~pid:_ -> Sync_resources.Fastring.get ring )
  in
  let t = B.create ~capacity:p.capacity ~put ~get in
  { meta = B.meta;
    tier = Tier.name tier;
    ops =
      [| { name = "put";
           run = (fun ~rng ~pid -> B.put t ~pid (Prng.int rng 1_000_000)) };
         { name = "get"; run = (fun ~rng:_ ~pid -> ignore (B.get t ~pid)) } |];
    selection = Cycle;
    stop = (fun () -> B.stop t) }

let slot (module S : Slot_intf.S) tier p =
  let cell = Sync_resources.Slot.create ~work:p.work () in
  let t =
    S.create
      ~put:(fun ~pid:_ v -> Sync_resources.Slot.put cell v)
      ~get:(fun ~pid:_ -> Sync_resources.Slot.get cell)
  in
  { meta = S.meta;
    tier = Tier.name tier;
    ops =
      [| { name = "put";
           run = (fun ~rng ~pid -> S.put t ~pid (Prng.int rng 1_000_000)) };
         { name = "get"; run = (fun ~rng:_ ~pid -> ignore (S.get t ~pid)) } |];
    selection = Cycle;
    stop = (fun () -> S.stop t) }

let fcfs (module F : Fcfs_intf.S) tier p =
  (* The FCFS resource is pure busywork plus its own overlap check (the
     harness's idiom): a synchronizer that admits two users concurrently
     trips Ill_synchronized here rather than posting a fake number. *)
  let busy = Atomic.make false in
  let use ~pid:_ =
    if not (Atomic.compare_and_set busy false true) then
      raise (Sync_resources.Busywork.Ill_synchronized "fcfs-load: overlap");
    Sync_resources.Busywork.spin p.work;
    Atomic.set busy false
  in
  let t = F.create ~use in
  { meta = F.meta;
    tier = Tier.name tier;
    ops = [| { name = "use"; run = (fun ~rng:_ ~pid -> F.use t ~pid) } |];
    selection = Cycle;
    stop = (fun () -> F.stop t) }

let rw (module R : Rw_intf.S) tier p =
  let store = Sync_resources.Store.create ~work:p.work () in
  let t =
    R.create
      ~read:(fun ~pid:_ -> Sync_resources.Store.read store)
      ~write:(fun ~pid:_ -> Sync_resources.Store.write store)
  in
  { meta = R.meta;
    tier = Tier.name tier;
    ops =
      [| { name = "read"; run = (fun ~rng:_ ~pid -> ignore (R.read t ~pid)) };
         { name = "write"; run = (fun ~rng:_ ~pid -> R.write t ~pid) } |];
    selection = Weighted [| p.read_pct; 100 - p.read_pct |];
    stop = (fun () -> R.stop t) }

let disk (module D : Disk_intf.S) tier p =
  let d = Sync_resources.Disk.create ~work:p.work ~tracks:p.tracks () in
  let t =
    D.create ~tracks:p.tracks
      ~access:(fun ~pid:_ track -> Sync_resources.Disk.access d track)
  in
  let pick_track rng =
    if p.hot_pct > 0 && Prng.int rng 100 < p.hot_pct then
      Prng.int rng (max 1 (p.tracks / 10))
    else Prng.int rng p.tracks
  in
  { meta = D.meta;
    tier = Tier.name tier;
    ops =
      [| { name = "access";
           run = (fun ~rng ~pid -> D.access t ~pid (pick_track rng)) } |];
    selection = Cycle;
    stop = (fun () -> D.stop t) }

(* Alarm clock under load (E27): the instance embeds the virtual-clock
   driver — a dedicated ticker advancing the clock every ~20 us until
   [stop] — so workers drive [wakeme] with small tick counts and the
   measured operation is a full sleep/wake round trip through the
   solution's synchronization. The historical objection (wall-clock
   load measures the driver) is priced in: every tier pays the same
   ticker, so tier-to-tier ratios isolate the synchronizer, which is
   what a tier grid compares. The ticker runs on its own domain, not a
   systhread: on the spawning domain it would share one runtime lock
   with whatever else lives there, and any long slice of that thread
   would stall the clock itself — skewing the very tier comparison the
   target exists for. *)
let alarm (module A : Alarm_intf.S) tier p =
  ignore p;
  let t = A.create () in
  let stopped = Atomic.make false in
  let ticker =
    Domain.spawn
      (fun () ->
        while not (Atomic.get stopped) do
          A.tick t;
          Thread.delay 2e-5
        done)
  in
  { meta = A.meta;
    tier = Tier.name tier;
    ops =
      [| { name = "wakeme";
           run = (fun ~rng ~pid -> A.wakeme t ~pid (1 + Prng.int rng 3)) } |];
    selection = Cycle;
    stop =
      (fun () ->
        Atomic.set stopped true;
        Domain.join ticker;
        A.stop t) }

(* The catalog. Readers-writers drives each mechanism's readers-priority
   registration — for semaphores the baton solution (the conformant one),
   for path expressions the paper's Figure 1 (faithful: it violates only
   the priority constraint, never exclusion, so it is safe to load). *)
let table : (string * (string * (tier -> params -> instance)) list) list =
  [ ( "bounded-buffer",
      [ ("semaphore", bb (module Bb_sem)); ("monitor", bb (module Bb_mon));
        ("serializer", bb (module Bb_ser)); ("pathexpr", bb (module Bb_path));
        ("csp", bb (module Bb_csp)); ("ccr", bb (module Bb_ccr));
        ("eventcount", bb (module Bb_evc)) ] );
    ( "fcfs",
      [ ("semaphore", fcfs (module Fcfs_sem));
        ("monitor", fcfs (module Fcfs_mon));
        ("serializer", fcfs (module Fcfs_ser));
        ("pathexpr", fcfs (module Fcfs_path));
        ("csp", fcfs (module Fcfs_csp)); ("ccr", fcfs (module Fcfs_ccr));
        ("eventcount", fcfs (module Fcfs_evc)) ] );
    ( "readers-writers",
      [ ("semaphore", rw (module Rw_sem.Readers_prio_baton));
        ("monitor", rw (module Rw_mon.Readers_prio));
        ("serializer", rw (module Rw_ser.Readers_prio));
        ("pathexpr", rw (module Rw_path.Fig1));
        ("csp", rw (module Rw_csp.Readers_prio));
        ("ccr", rw (module Rw_ccr.Readers_prio));
        (* E23: the epoch read-mostly path, only meaningful for this
           problem (its whole point is scaling reader entry). *)
        ("epoch", rw (module Rw_epoch.Read_mostly)) ] );
    ( "disk-scheduler",
      [ ("semaphore", disk (module Disk_sem));
        ("monitor", disk (module Disk_mon));
        ("serializer", disk (module Disk_ser));
        ("pathexpr", disk (module Disk_path));
        ("csp", disk (module Disk_csp)); ("ccr", disk (module Disk_ccr)) ] );
    ( "one-slot-buffer",
      [ ("semaphore", slot (module Slot_sem));
        ("monitor", slot (module Slot_mon));
        ("serializer", slot (module Slot_ser));
        ("pathexpr", slot (module Slot_path));
        ("csp", slot (module Slot_csp)); ("ccr", slot (module Slot_ccr));
        ("eventcount", slot (module Slot_evc)) ] );
    (* Alarm clock with an embedded ticker (see [alarm] above).
       "wheel" is the timer-wheel solution whose tick cost is
       independent of pending alarms; "monitor" rides along as the
       classic priority-wait baseline. *)
    ( "alarm-clock",
      [ ("monitor", alarm (module Alarm_mon));
        ("wheel", alarm (module Alarm_wheel)) ] ) ]

let problems = List.map fst table

let mechanisms ~problem =
  match List.assoc_opt problem table with
  | None -> []
  | Some ms -> List.map fst ms

let create ?(params = default_params) ?(tier = `Default) ~problem ~mechanism
    () =
  if params.read_pct < 0 || params.read_pct > 100 then
    Error "read_pct must be in 0..100"
  else if params.capacity < 1 then Error "capacity must be >= 1"
  else if params.tracks < 2 then Error "tracks must be >= 2"
  else
    match List.assoc_opt problem table with
    | None ->
      Error
        (Printf.sprintf "unknown problem %S (try: %s)" problem
           (String.concat ", " problems))
    | Some ms -> (
      match List.assoc_opt mechanism ms with
      | None ->
        Error
          (Printf.sprintf "no %S target for %S (try: %s)" mechanism problem
             (String.concat ", " (List.map fst ms)))
      | Some build ->
        (* The tier is a creation-time property of the platform
           primitives: build the whole solution (including any CSP
           server processes it spawns) inside the tier's scope, then
           restore. Workers created later by the load generator see
           whatever tier the instance was built with. [`Prim c] builds
           can raise {!Sync_prims.Prims.Unsupported} (e.g. RW x FCFS
           semaphore); callers that grid over classes catch it as a
           typed result. *)
        Ok (Tier.with_tier tier (fun () -> build tier params)))
