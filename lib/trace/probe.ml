(* The hot half of the observability layer: a global static flag and
   per-thread ring buffers.

   Contention design mirrors [Sync_metrics.Recorder]: share-nothing. Each
   OS thread (workers are threads or domain mains) records into its own
   ring buffer, found by an indexed slot keyed on the thread id; buffers
   are snapshotted after the traced region quiesces. One event is four
   int stores into one preallocated int array plus one string store (the
   site) — no per-event allocation, and a write barrier only when the
   slot held another site.

   An enabled event costs its clock read, the ring lookup and one
   release publish of the ring's position; the rest is inlined here.
   dune's dev profile compiles with -opaque, so the entry points stay
   calls in their callers: only what is inside this file inlines.

   The clock is most of the cost of a recorded event, so an instrumented
   operation reads it once per distinct instant. A platform lock reads it
   at acquire and at release; the mechanism spans wrapped around those
   locks (monitor entry, a protected access, a path-expression operation)
   start and end exactly where the lock events inside them do, so they
   borrow those timestamps from the ring ({!mark}, {!span_marked},
   {!span_to_latest}, {!latest_start}) instead of reading the clock
   again.

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

let[@inline] kind_index = function
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

(* The clock's calibration is published before the flag, so no event is
   stamped by the monotonic fallback once tracing is on. *)
let enable () =
  Probe_clock.calibrate ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* Ring capacity is a power of two, so a slot index is a mask, not a
   division. *)
let capacity = ref 65_536

let set_capacity n =
  if n < 2 || n > 1 lsl 30 then
    invalid_arg "Probe.set_capacity: need 2 to 2^30 slots";
  let rec pow2 c = if c >= n then c else pow2 (2 * c) in
  capacity := pow2 2

(* An event's header word packs three fields:
   bits 0-3 the kind, bits 4-19 the op-label index, and the rest the
   actor, signed (read back with an arithmetic shift). *)
let op_shift = 4

let op_bits = 16

let actor_shift = op_shift + op_bits

let max_labels = 1 lsl op_bits

let max_op_labels = max_labels - 1

let max_actor = (1 lsl (62 - actor_shift)) - 1

let min_actor = -max_actor - 1

(* Per-thread ring buffer. Only the owning thread writes; [pos] counts
   every event ever written, so [pos - cap] events have been overwritten
   once the ring wraps.

   Event [i] occupies [words.(4i) .. words.(4i + 3)] (header, t0, dur,
   arg) plus [bsite.(i)]: five words per event, the site the only store
   with a write barrier. [bop] is the current op label's index, already
   shifted into header position; [bactor] likewise for the thread id.

   [ckeys]/[cops] cache the thread's recent op labels: [cops.(i)] is the
   header-shifted index of the physical string [ckeys.(i)], so a [set_op]
   with a label the thread used lately skips interning. The cache starts
   full of [""], whose index is 0 in every label table, and goes with its
   ring at [reset].

   [pos] is atomic so a concurrent reader ([snapshot]) can use
   it as a sequence lock: the owning thread fills every slot field and
   only then publishes with an [Atomic.set] (a release on OCaml's SC
   atomics), so any event below the published count is fully written. *)
type buffer = {
  btid : int;
  bactor : int;
  cap : int;
  words : int array;
  bsite : string array;
  mutable bop : int;
  ckeys : string array;
  cops : int array;
  mutable cnext : int;
  pos : int Atomic.t;
}

let cache_size = 8

let make_buffer tid cap =
  { btid = tid; bactor = tid lsl actor_shift; cap;
    words = Array.make (4 * cap) 0;
    bsite = Array.make cap "";
    bop = 0; ckeys = Array.make cache_size ""; cops = Array.make cache_size 0;
    cnext = 0; pos = Atomic.make 0 }

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

let[@inline] my_buffer () =
  let tid = Thread.id (Thread.self ()) in
  let slot = slots.(tid land (slot_count - 1)) in
  let b = Atomic.get slot in
  if b.btid = tid then b else claim slot tid

(* Op labels, interned: an event carries the label's index, and the
   table maps it back at snapshot time. The table only grows until the
   next [reset], so a label outlives every event that carries it, also
   across ring wraparound. Readers take one immutable version from the
   atomic; [intern] publishes a new version under [registry_lock]. New
   names are written into spare room of the shared [names] array beyond
   every published [count], where no reader looks. *)
module Smap = Map.Make (String)

type labels = { names : string array; count : int; index : int Smap.t }

let no_labels () =
  { names = Array.make 16 ""; count = 1; index = Smap.singleton "" 0 }

let labels = Atomic.make (no_labels ())

let add_label name =
  let l = Atomic.get labels in
  match Smap.find name l.index with
  | i -> i
  | exception Not_found ->
    let n = l.count in
    if n >= max_labels then
      invalid_arg
        (Printf.sprintf "Probe.set_op: more than %d distinct op labels"
           max_op_labels);
    let names =
      if n < Array.length l.names then l.names
      else Array.init (2 * n) (fun i -> if i < n then l.names.(i) else "")
    in
    names.(n) <- name;
    Atomic.set labels { names; count = n + 1; index = Smap.add name n l.index };
    n

let intern name =
  match Smap.find name (Atomic.get labels).index with
  | i -> i
  | exception Not_found ->
    Stdlib.Mutex.lock registry_lock;
    Fun.protect
      ~finally:(fun () -> Stdlib.Mutex.unlock registry_lock)
      (fun () -> add_label name)

let label i =
  let l = Atomic.get labels in
  if i < l.count then l.names.(i) else ""

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

(* The header of the caller's next event, less its kind: op label and
   actor. *)
let[@inline] header b =
  b.bop
  lor
  if Atomic.get virtual_runs = 0 then b.bactor
  else current_actor b lsl actor_shift

let[@inline] now_ns () = Probe_clock.now_ns ()

let now () = if enabled () then now_ns () else 0

(* Fill slot [p] without publishing it. The indices are in bounds by
   construction: [p land (cap - 1)] < [cap], and [words] has [4 * cap]
   entries. A slot that already holds this very site string (a steady op
   pattern come round the ring) skips the site store's write barrier. *)
let[@inline] put b p h ~site ~t0 ~dur ~arg =
  let i = p land (b.cap - 1) in
  let w = b.words and j = 4 * i in
  Array.unsafe_set w j h;
  Array.unsafe_set w (j + 1) t0;
  Array.unsafe_set w (j + 2) dur;
  Array.unsafe_set w (j + 3) arg;
  if Array.unsafe_get b.bsite i != site then Array.unsafe_set b.bsite i site

let[@inline] write b k ~site ~t0 ~dur ~arg =
  let p = Atomic.get b.pos in
  put b p (kind_index k lor header b) ~site ~t0 ~dur ~arg;
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

let round_trip ~site ~t0 =
  if enabled () && t0 <> 0 then begin
    let t1 = now_ns () in
    let b = my_buffer () in
    let p = Atomic.get b.pos and h = header b in
    put b p (kind_index Acquire lor h) ~site ~t0 ~dur:0 ~arg:0;
    put b (p + 1) (kind_index Hold lor h) ~site ~t0 ~dur:(t1 - t0) ~arg:0;
    Atomic.set b.pos (p + 2)
  end

(* -- spans borrowed from the ring ---------------------------------- *)

(* A mark is the thread's event count plus one, so that 0 stays the
   "tracing was off" token: the events recorded since mark [m] are
   numbered [m - 1] up to [pos - 1]. *)
let mark () = if enabled () then Atomic.get (my_buffer ()).pos + 1 else 0

(* Inside a deterministic run several virtual tasks share one OS
   thread's ring, so an event is borrowed only if it is the caller's
   ([actor]): the walks below skip the other tasks' events. Outside such
   runs every event in the ring is the caller's, and the searches are
   index arithmetic. *)
let own b actor p = b.words.(4 * (p land (b.cap - 1))) asr actor_shift = actor

let start_of b p = b.words.((4 * (p land (b.cap - 1))) + 1)

let end_of b p =
  let j = 4 * (p land (b.cap - 1)) in
  b.words.(j + 1) + b.words.(j + 2)

(* The first of the caller's events numbered [e] to [p - 1], or -1; and
   the latest of those numbered [lo] to [e]. Top-level, so that a search
   allocates no closure. *)
let rec forward b actor e p =
  if e >= p then -1
  else if own b actor e then e
  else forward b actor (e + 1) p

let rec backward b actor e lo =
  if e < lo then -1
  else if own b actor e then e
  else backward b actor (e - 1) lo

(* The caller's first event recorded since mark [m] that is still in the
   ring (if the ring wrapped since, the oldest retained one: a bound that
   still encloses every retained event), or -1. *)
let first_own b m =
  let p = Atomic.get b.pos in
  let lo = Int.max (m - 1) (p - b.cap) in
  if Atomic.get virtual_runs = 0 then if lo < p then lo else -1
  else forward b (current_actor b) lo p

(* The caller's latest event recorded since mark [m], or -1. *)
let latest_own b m =
  let p = Atomic.get b.pos in
  let lo = Int.max (m - 1) (p - b.cap) in
  if Atomic.get virtual_runs = 0 then if lo < p then p - 1 else -1
  else backward b (current_actor b) (p - 1) lo

let latest_end b m =
  match latest_own b m with -1 -> now_ns () | e -> end_of b e

let latest_start m =
  if m <> 0 && enabled () then begin
    let b = my_buffer () in
    match latest_own b m with -1 -> now_ns () | e -> start_of b e
  end
  else 0

let span_to_latest k ~site ~since ~mark ~arg =
  if mark <> 0 && since <> 0 && enabled () then begin
    let b = my_buffer () in
    let t1 = latest_end b mark in
    write b k ~site ~t0:since ~dur:(t1 - since) ~arg
  end

let span_marked k ~site ~mark ~arg =
  if mark <> 0 && enabled () then begin
    let b = my_buffer () in
    let t0 =
      match first_own b mark with -1 -> now_ns () | e -> start_of b e
    in
    let t1 = latest_end b mark in
    write b k ~site ~t0 ~dur:(t1 - t0) ~arg;
    t1
  end
  else 0

(* The cache entry holding the physical string [name], or -1. *)
let rec cached keys name i =
  if i = cache_size then -1
  else if Array.unsafe_get keys i == name then i
  else cached keys name (i + 1)

(* A label that cannot be interned leaves the thread's later events
   unlabelled rather than carrying the previous op's label. A miss
   replaces the cache's entries in turn. *)
let set_op name =
  if enabled () then begin
    let b = my_buffer () in
    match cached b.ckeys name 0 with
    | -1 -> (
      match intern name with
      | i ->
        let op = i lsl op_shift and c = b.cnext in
        b.ckeys.(c) <- name;
        b.cops.(c) <- op;
        b.cnext <- (c + 1) land (cache_size - 1);
        b.bop <- op
      | exception e ->
        b.bop <- 0;
        raise e)
    | c -> b.bop <- Array.unsafe_get b.cops c
  end

let reset () =
  Stdlib.Mutex.lock registry_lock;
  registry := [];
  Atomic.set labels (no_labels ());
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
  let w = b.words and j = 4 * i in
  let h = w.(j) in
  { kind = kind_of_index.(h land ((1 lsl op_shift) - 1)); t0 = w.(j + 1);
    dur = w.(j + 2); arg = w.(j + 3); actor = h asr actor_shift;
    site = b.bsite.(i); op = label ((h lsr op_shift) land (max_labels - 1)) }

(* Every event still in the ring. [p0] is read before reading the
   slots and [p1] after: events the owner published meanwhile overwrote
   the ones numbered cap earlier, so only events in
   [max(lo, p1 - cap), p0) are kept. A quiesced ring reads [p1 = p0]
   and keeps every retained event; a write still in progress could
   tear the oldest kept slot, which is why snapshots are taken after
   the traced region. If a writer laps the reader by a full ring the
   window is empty and we retry (bounded). *)
let buffer_events b =
  let rec attempt tries =
    let p0 = Atomic.get b.pos in
    let lo = max 0 (p0 - b.cap) in
    if p0 <= lo then []
    else begin
      let evs = Array.init (p0 - lo) (fun j -> event_at b (lo + j)) in
      let p1 = Atomic.get b.pos in
      let lo' = max lo (p1 - b.cap) in
      if lo' >= p0 && tries < 8 then attempt (tries + 1)
      else
        let keep = max 0 (p0 - lo') in
        List.init keep (fun j -> evs.(p0 - lo - keep + j))
    end
  in
  attempt 0

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

let snapshot () =
  buffers ()
  |> List.concat_map buffer_events
  |> sort_events

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
