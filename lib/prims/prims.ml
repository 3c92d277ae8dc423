(* The E25 primitive-class abstraction: which atomic operations the
   synchronization substrate may use. Each restricted class has its own
   lock and counting-semaphore construction (functors over {!Regs}
   signatures, instantiated here over {!Regs.Shared}); the platform's
   [Mutex]/[Semaphore] facades build on them when the creation-time
   {!Tier} is [`Prim c].

   What a class cannot express surfaces as the typed {!Unsupported}
   exception, never as a crash or a silent downgrade — the hierarchy
   scorecard records these as first-class results. *)

type cls = Tier.cls = RW | CAS | FAA | LLSC

exception Unsupported of { cls : cls; feature : string; reason : string }

let cls_name c = Tier.name (`Prim c)

let all = [ RW; CAS; FAA; LLSC ]

let unsupported cls feature reason = raise (Unsupported { cls; feature; reason })

let with_class c f = Tier.with_tier (`Prim c) f

(* ------------------------------------------------------------------ *)
(* Production instances: every class over the same SC-atomic registers,
   restricted through the class signatures. *)

module B = Bakery.Make (Regs.Shared)
module C = Caslock.Make (Regs.Shared)
module F = Faalock.Make (Regs.Shared)
module L = Llsc.Make (Regs.Shared)
module T_faa = Ticket_sem.Make (Regs.Shared)
module T_cas = Ticket_sem.Make (Regs.Faa_of_cas (Regs.Shared))
module T_llsc = Ticket_sem.Make (L.Faa_regs)

(* The bakery is a static-process algorithm: per-lock slot assignment
   maps real threads onto register indices (see {!Slots}). *)
let bakery_slots = 64

let rw_slots () =
  Slots.create ~size:bakery_slots ~owner:"Prims" ~what:"RW-class lock"

(* ------------------------------------------------------------------ *)
(* Locks: one closure cell regardless of class, so the platform mutex
   carries a single representation for every tier. *)

let make_lock cls : Tier.cell =
  let tier = `Prim cls in
  match cls with
  | RW ->
    let b = B.create ~bound:4096 ~slots:bakery_slots () in
    let slots = rw_slots () in
    { Tier.lock = (fun () -> B.lock b ~slot:(Slots.self slots));
      try_lock = (fun () -> B.try_lock b ~slot:(Slots.self slots));
      unlock = (fun () -> B.unlock b ~slot:(Slots.self slots));
      tier }
  | CAS ->
    let l = C.Lock.create () in
    { Tier.lock = (fun () -> C.Lock.lock l);
      try_lock = (fun () -> C.Lock.try_lock l);
      unlock = (fun () -> C.Lock.unlock l);
      tier }
  | FAA ->
    let l = F.Lock.create () in
    { Tier.lock = (fun () -> F.Lock.lock l);
      try_lock = (fun () -> F.Lock.try_lock l);
      unlock = (fun () -> F.Lock.unlock l);
      tier }
  | LLSC ->
    let l = L.Lock.create () in
    { Tier.lock = (fun () -> L.Lock.lock l);
      try_lock = (fun () -> L.Lock.try_lock l);
      unlock = (fun () -> L.Lock.unlock l);
      tier }

(* ------------------------------------------------------------------ *)
(* Counting semaphores. [`Weak] exists in every class; [`Strong] (FCFS)
   needs an order-assigning read-modify-write, so the RW class rejects
   it with a typed reason — the hierarchy separation the E25 scorecard
   pins. [sm_p_poll expired] is the timed P: it returns [false] only
   after [expired ()] was observed true. *)

type sem = {
  sm_p : unit -> unit;
  sm_try : unit -> bool;
  sm_p_poll : (unit -> bool) -> bool;
  sm_v : int -> unit;
  sm_value : unit -> int;
  sm_waiters : unit -> int;
}

module type SEM = sig
  type t

  val create : int -> t
  val p : t -> unit
  val try_p : t -> bool
  val p_poll : t -> (unit -> bool) -> bool
  val v_n : t -> int -> unit
  val value : t -> int
end

(* RW-only weak semaphore: a bakery-guarded counter with an invisible
   pre-wait on the value register. Barging (hence weak): the pre-wait
   carries no order. *)
module Rw_sem = struct
  type t = { b : B.t; slots : Slots.t; value : Regs.Shared.t }

  let create n =
    let b = B.create ~bound:4096 ~slots:bakery_slots () in
    let slots = rw_slots () in
    { b; slots; value = Regs.Shared.make n }

  let locked t f =
    let s = Slots.self t.slots in
    B.lock t.b ~slot:s;
    let r = f () in
    B.unlock t.b ~slot:s;
    r

  let try_p t =
    locked t (fun () ->
        let v = Regs.Shared.get t.value in
        if v > 0 then begin
          Regs.Shared.set t.value (v - 1);
          true
        end
        else false)

  let rec p t =
    Regs.Shared.await ~watch:[| t.value |] (fun () ->
        Regs.Shared.get t.value > 0);
    if not (try_p t) then p t

  let rec p_poll t expired =
    if try_p t then true
    else if expired () then false
    else begin
      Regs.Shared.await ~watch:[| t.value |] (fun () ->
          Regs.Shared.get t.value > 0 || expired ());
      p_poll t expired
    end

  let v_n t k =
    locked t (fun () -> Regs.Shared.set t.value (Regs.Shared.get t.value + k))

  let value t = Regs.Shared.get t.value
end

let strong_reason =
  "FCFS grants need an arrival-order-assigning read-modify-write (ticket \
   fetch-and-add); atomic read/write registers only admit barging waits"

let make_sem cls ~fairness n =
  if n < 0 then invalid_arg "Prims.make_sem: negative value";
  let sem (module S : SEM) =
    let s = S.create n in
    (* Blocked-caller bookkeeping for introspection ([waiters]); not part
       of any protocol, so a plain atomic is fine in every class. *)
    let w = Atomic.make 0 in
    let guarded f =
      Atomic.incr w;
      Fun.protect ~finally:(fun () -> Atomic.decr w) f
    in
    { sm_p = (fun () -> if not (S.try_p s) then guarded (fun () -> S.p s));
      sm_try = (fun () -> S.try_p s);
      sm_p_poll =
        (fun expired -> S.try_p s || guarded (fun () -> S.p_poll s expired));
      sm_v = S.v_n s;
      sm_value = (fun () -> S.value s);
      sm_waiters = (fun () -> Atomic.get w) }
  in
  match (cls, fairness) with
  | RW, `Strong -> unsupported RW "semaphore.strong" strong_reason
  | RW, `Weak -> sem (module Rw_sem)
  | CAS, `Weak -> sem (module C.Sem)
  | CAS, `Strong -> sem (module T_cas)
  | FAA, `Weak -> sem (module F.Sem)
  | FAA, `Strong -> sem (module T_faa)
  | LLSC, `Weak -> sem (module L.Sem)
  | LLSC, `Strong -> sem (module T_llsc)
