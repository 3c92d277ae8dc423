(* The hot half of the observability layer: a global static flag and
   per-thread ring buffers.

   Contention design mirrors [Sync_metrics.Recorder]: share-nothing. Each
   OS thread (workers are threads or domain mains) records into its own
   ring buffer, found by an indexed slot keyed on the thread id; buffers
   are snapshotted after the traced region quiesces. One event is five
   int stores into one preallocated int array plus two string stores —
   no per-event allocation.

   Disabled cost is the whole game: every probe entry point reads one
   atomic flag and returns. No closure is built, no optional argument is
   boxed, no clock is read, nothing is allocated — verified by the
   Gc-stat test in test_trace and the A/B cell in bench_load. *)

type kind =
  | Acquire   (* span: blocked entering a lock / region / possession *)
  | Hold      (* span: a lock, monitor or possession was held *)
  | Wait      (* span: parked on a queue or condition; arg = queue depth *)
  | Op        (* span: one mechanism-level operation *)
  | Signal    (* instant: a wake was issued; arg = waiters present *)
  | Handoff   (* instant: grant handed directly to a waiter; arg = left *)
  | Abandon   (* instant: a timed wait gave up; arg = ns spent waiting *)
  | Spurious  (* instant: woken with the awaited predicate still false *)
  | Flip      (* instant: a site changed tier; arg = new tier index *)

let kind_to_string = function
  | Acquire -> "acquire"
  | Hold -> "hold"
  | Wait -> "wait"
  | Op -> "op"
  | Signal -> "signal"
  | Handoff -> "handoff"
  | Abandon -> "abandon"
  | Spurious -> "spurious"
  | Flip -> "flip"

let is_span = function
  | Acquire | Hold | Wait | Op -> true
  | Signal | Handoff | Abandon | Spurious | Flip -> false

let kind_index = function
  | Acquire -> 0
  | Hold -> 1
  | Wait -> 2
  | Op -> 3
  | Signal -> 4
  | Handoff -> 5
  | Abandon -> 6
  | Spurious -> 7
  | Flip -> 8

let kind_of_index =
  [| Acquire; Hold; Wait; Op; Signal; Handoff; Abandon; Spurious; Flip |]

(* The static flag. A single atomic load guards every probe; [enabled]
   is the first thing each entry point checks, before any allocation. *)
let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let enable () = Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* Ring capacity is a power of two, so a slot index is a mask, not a
   division. *)
let capacity = ref 65_536

let set_capacity n =
  if n < 2 || n > 1 lsl 30 then
    invalid_arg "Probe.set_capacity: need 2 to 2^30 slots";
  let rec pow2 c = if c >= n then c else pow2 (2 * c) in
  capacity := pow2 2

(* Per-thread ring buffer. Only the owning thread writes; [pos] counts
   every event ever written, so [pos - cap] events have been overwritten
   once the ring wraps.

   Event [i] occupies [words.(stride * i) .. words.(stride * i + 4)]
   (kind, t0, dur, arg, actor) plus [bsite.(i)] and [bop.(i)]: seven
   words per event, all but the two strings stored without a write
   barrier.

   [pos] is atomic so a concurrent reader (the adaptive sampler) can use
   it as a sequence lock: the owning thread fills every slot field and
   only then publishes with an [Atomic.set] (a release on OCaml's SC
   atomics), so any event below the published count is fully written. *)
type buffer = {
  btid : int;
  cap : int;
  words : int array;
  bsite : string array;
  bop : string array;
  mutable bop_cur : string;
  pos : int Atomic.t;
}

let stride = 5

let make_buffer tid cap =
  { btid = tid; cap;
    words = Array.make (stride * cap) 0;
    bsite = Array.make cap "";
    bop = Array.make cap "";
    bop_cur = ""; pos = Atomic.make 0 }

(* Buffer lookup: a fixed array of atomic slots indexed by thread id,
   each re-verified against the owner's id. Two live threads whose ids
   collide modulo [slot_count] take the slot in turn, each re-finding its
   own buffer in [registry] — never allocating a second one. *)
let slot_count = 256

(* Owned by no thread: an empty slot. *)
let vacant = make_buffer (-1) 0

let slots = Array.init slot_count (fun _ -> Atomic.make vacant)

let registry_lock = Stdlib.Mutex.create ()

let registry : buffer list ref = ref []

let rec owned_by tid = function
  | [] -> vacant
  | b :: rest -> if b.btid = tid then b else owned_by tid rest

(* Allocates only the thread's first ring: colliding threads call this
   on every turn. *)
let claim slot tid =
  Stdlib.Mutex.lock registry_lock;
  let b =
    match owned_by tid !registry with
    | b when b != vacant -> b
    | _ ->
      let b = make_buffer tid !capacity in
      registry := b :: !registry;
      b
  in
  Stdlib.Mutex.unlock registry_lock;
  Atomic.set slot b;
  b

let my_buffer () =
  let tid = Thread.id (Thread.self ()) in
  let slot = slots.(tid land (slot_count - 1)) in
  let b = Atomic.get slot in
  if b.btid = tid then b else claim slot tid

(* Actor ids: the OS thread id normally; inside a deterministic run the
   virtual task id, reported by the runtime through the same provider
   pattern Fault/Deadlock use. Virtual actors are encoded negative so a
   timeline can tell the two worlds apart. The provider is consulted only
   while some deterministic run is in progress, so real-thread events
   read the actor without a closure call. *)
let task_provider : (unit -> int option) ref = ref (fun () -> None)

let set_task_provider f = task_provider := f

let virtual_runs = Atomic.make 0

let virtual_run f =
  Atomic.incr virtual_runs;
  Fun.protect ~finally:(fun () -> Atomic.decr virtual_runs) f

let current_actor b =
  if Atomic.get virtual_runs = 0 then b.btid
  else match !task_provider () with Some vt -> -(vt + 1) | None -> b.btid

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now () = if enabled () then now_ns () else 0

let write b k ~site ~t0 ~dur ~arg =
  let p = Atomic.get b.pos in
  let i = p land (b.cap - 1) in
  let w = b.words and j = stride * i in
  w.(j) <- kind_index k;
  w.(j + 1) <- t0;
  w.(j + 2) <- dur;
  w.(j + 3) <- arg;
  w.(j + 4) <- current_actor b;
  b.bsite.(i) <- site;
  b.bop.(i) <- b.bop_cur;
  (* Publish: slot stores above happen-before this release store. *)
  Atomic.set b.pos (p + 1)

let record k ~site ~t0 ~dur ~arg =
  if enabled () && t0 <> 0 then write (my_buffer ()) k ~site ~t0 ~dur ~arg

let span_end k ~site ~since ~arg =
  if enabled () && since <> 0 then begin
    let t1 = now_ns () in
    write (my_buffer ()) k ~site ~t0:since ~dur:(t1 - since) ~arg;
    t1
  end
  else 0

let span k ~site ~since ~arg = ignore (span_end k ~site ~since ~arg)

let instant k ~site ~arg =
  if enabled () then write (my_buffer ()) k ~site ~t0:(now_ns ()) ~dur:0 ~arg

let set_op name = if enabled () then (my_buffer ()).bop_cur <- name

let reset () =
  Stdlib.Mutex.lock registry_lock;
  registry := [];
  Stdlib.Mutex.unlock registry_lock;
  Array.iter (fun s -> Atomic.set s vacant) slots

(* -- snapshots ----------------------------------------------------- *)

type event = {
  t0 : int;
  dur : int;
  kind : kind;
  site : string;
  op : string;
  actor : int;
  arg : int;
}

let event_at b p =
  let i = p land (b.cap - 1) in
  let w = b.words and j = stride * i in
  { kind = kind_of_index.(w.(j)); t0 = w.(j + 1); dur = w.(j + 2);
    arg = w.(j + 3); actor = w.(j + 4); site = b.bsite.(i); op = b.bop.(i) }

(* The events numbered [from] onwards that are still in the ring, read
   consistently while the owner may keep writing (the sampler path) —
   and, once the owner has quiesced, simply every retained event.

   [p0] is read before reading the slots and [p1] after: any slot the
   owner touched meanwhile belongs to an event numbered in [p0, p1),
   which overwrote the event numbered cap earlier. Events in
   [max(lo, p1 - cap), p0) were therefore fully published before the
   read began and untouched during it — no torn slot can leak out. If
   the owner laps the reader by a full ring the window is empty and we
   retry (bounded; in practice one pass suffices). The work is bounded
   by the number of new events, so a periodic sampler's cost is
   proportional to recording activity, not to ring capacity. *)
let buffer_events_from b ~from =
  let rec attempt tries =
    let p0 = Atomic.get b.pos in
    let lo = max from (max 0 (p0 - b.cap)) in
    if p0 <= lo then ([], p0)
    else begin
      let evs = Array.init (p0 - lo) (fun j -> event_at b (lo + j)) in
      let p1 = Atomic.get b.pos in
      let lo' = max lo (p1 - b.cap) in
      if lo' >= p0 && tries < 8 then attempt (tries + 1)
      else
        let keep = max 0 (p0 - lo') in
        (List.init keep (fun j -> evs.(p0 - lo - keep + j)), p0)
    end
  in
  attempt 0

let buffer_events b = fst (buffer_events_from b ~from:0)

let buffers () =
  Stdlib.Mutex.lock registry_lock;
  let bs = !registry in
  Stdlib.Mutex.unlock registry_lock;
  bs

let sort_events evs =
  List.sort
    (fun a b ->
      match compare a.t0 b.t0 with 0 -> compare b.dur a.dur | c -> c)
    evs

let snapshot () = buffers () |> List.concat_map buffer_events |> sort_events

let live_snapshot = snapshot

type cursor = (buffer * int) list

let start_cursor : cursor = []

let live_read cur =
  let pairs =
    List.map
      (fun b ->
        let from = try List.assq b cur with Not_found -> 0 in
        let evs, next = buffer_events_from b ~from in
        (evs, (b, next)))
      (buffers ())
  in
  (List.concat_map fst pairs |> sort_events, List.map snd pairs)

let total () =
  List.fold_left (fun acc b -> acc + Atomic.get b.pos) 0 (buffers ())

let dropped () =
  List.fold_left
    (fun acc b -> acc + max 0 (Atomic.get b.pos - b.cap))
    0 (buffers ())

let with_tracing f =
  reset ();
  enable ();
  match f () with
  | v ->
    disable ();
    let evs = snapshot () in
    (v, evs)
  | exception e ->
    disable ();
    raise e

let actor_label a =
  if a < 0 then Printf.sprintf "v%d" (-a - 1) else Printf.sprintf "t%d" a
