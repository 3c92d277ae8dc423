(* Hierarchical timing wheel (Varghese & Lauck), the E27 alarm
   substrate: [levels] rings of [2^slot_bits] buckets each, where a
   level-[l] slot spans [2^(l*slot_bits)] ticks. Insert and cancel are
   O(1) — compute the level from the relative delay, splice into an
   intrusive doubly-linked bucket. Advancing one tick touches exactly
   one level-0 bucket plus, when a ring wraps, one cascade bucket per
   wrapped level — amortized O(1) per tick and, crucially, independent
   of the number of pending alarms (a binary heap pays O(log n) per
   alarm; `bloom_eval axis adaptive --full` measures the gap at millions
   pending).

   Level choice is the smallest level whose span covers the relative
   delay, so a deadline inside the current level-[l] window (whose
   cascade already ran) always lands a level lower and is never late;
   a deadline in the next rotation waits in the ring for the next
   cascade of its slot, which is exactly its window start. Deadlines at
   or beyond [now + horizon] wait on an overflow list that is
   re-examined once per full rotation.

   The structure is single-owner: whoever drives it (the alarm_wheel
   solution, a bench loop) provides exclusion. [tick] allocates
   nothing; it only splices existing nodes. *)

type 'a node = {
  mutable prev : 'a node;
  mutable next : 'a node;
  mutable deadline : int; (* absolute tick; -1 on sentinels *)
  value : 'a option; (* [None] only on sentinels *)
}

type 'a alarm = 'a node

type 'a t = {
  slot_bits : int;
  mask : int;
  nlevels : int;
  horizon : int; (* ticks representable inside the rings *)
  rings : 'a node array array; (* rings.(l).(s) = bucket sentinel *)
  overflow : 'a node;
  mutable now : int;
  mutable pending : int;
}

let sentinel () =
  let rec s = { prev = s; next = s; deadline = -1; value = None } in
  s

let create ?(levels = 4) ?(slot_bits = 8) () =
  if levels < 1 then invalid_arg "Timerwheel.create: need at least 1 level";
  if slot_bits < 1 || levels * slot_bits > 60 then
    invalid_arg "Timerwheel.create: slot_bits out of range";
  let slots = 1 lsl slot_bits in
  { slot_bits;
    mask = slots - 1;
    nlevels = levels;
    horizon = 1 lsl (levels * slot_bits);
    rings =
      Array.init levels (fun _ -> Array.init slots (fun _ -> sentinel ()));
    overflow = sentinel ();
    now = 0;
    pending = 0 }

let now t = t.now

let pending t = t.pending

(* Intrusive splicing. A detached node points at itself, which makes
   [cancel] idempotent and [fired] stateless. *)
let detach n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.prev <- n;
  n.next <- n

let detached n = n.next == n

let append_before s n =
  n.prev <- s.prev;
  n.next <- s;
  s.prev.next <- n;
  s.prev <- n

let bucket_for t ~deadline =
  let r = deadline - t.now in
  if r >= t.horizon then t.overflow
  else begin
    let rec level l =
      if r < 1 lsl ((l + 1) * t.slot_bits) then l else level (l + 1)
    in
    let l = level 0 in
    t.rings.(l).((deadline lsr (l * t.slot_bits)) land t.mask)
  end

let place t n = append_before (bucket_for t ~deadline:n.deadline) n

let add t ~delay v =
  let delay = max 1 delay in
  let rec n =
    { prev = n; next = n; deadline = t.now + delay; value = Some v }
  in
  place t n;
  t.pending <- t.pending + 1;
  n

let cancel t n =
  if detached n then false
  else begin
    detach n;
    t.pending <- t.pending - 1;
    true
  end

let fired n = detached n

let deadline n = n.deadline

(* Re-place every node of a cascaded (or overflow) bucket. The chain is
   severed first: overflow nodes still beyond the horizon re-enter the
   same overflow list, and walking a live list while appending to it
   would never terminate. *)
let redistribute t s =
  let first = s.next in
  if first != s then begin
    let last = s.prev in
    s.next <- s;
    s.prev <- s;
    let rec go n =
      let nxt = n.next in
      let stop = n == last in
      n.prev <- n;
      n.next <- n;
      place t n;
      if not stop then go nxt
    in
    go first
  end

let tick t f =
  t.now <- t.now + 1;
  (* Cascade every level whose window begins this tick, lowest first so
     nodes settle level by level; after a full rotation, re-examine the
     overflow list too. Then fire the level-0 bucket. *)
  let rec cascade l =
    if l < t.nlevels then begin
      if t.now land ((1 lsl (l * t.slot_bits)) - 1) = 0 then begin
        redistribute t
          t.rings.(l).((t.now lsr (l * t.slot_bits)) land t.mask);
        cascade (l + 1)
      end
    end
    else if t.now land (t.horizon - 1) = 0 then redistribute t t.overflow
  in
  cascade 1;
  let bucket = t.rings.(0).(t.now land t.mask) in
  let rec fire count =
    let n = bucket.next in
    if n == bucket then count
    else begin
      detach n;
      t.pending <- t.pending - 1;
      (match n.value with Some v -> f n.deadline v | None -> ());
      fire (count + 1)
    end
  in
  fire 0

let advance t ~ticks f =
  let rec go i acc = if i = 0 then acc else go (i - 1) (acc + tick t f) in
  go (max 0 ticks) 0
