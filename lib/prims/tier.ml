type cls = RW | CAS | FAA | LLSC

type kind = MCS | CLH | Ticket

type t = [ `Default | `Fast | `Prim of cls | `Queue of kind | `Adaptive ]

let name : t -> string = function
  | `Default -> "default"
  | `Fast -> "fast"
  | `Prim RW -> "rw"
  | `Prim CAS -> "cas"
  | `Prim FAA -> "faa"
  | `Prim LLSC -> "llsc"
  | `Queue MCS -> "mcs"
  | `Queue CLH -> "clh"
  | `Queue Ticket -> "ticket"
  | `Adaptive -> "adaptive"

let all : t list =
  [ `Default; `Fast; `Prim RW; `Prim CAS; `Prim FAA; `Prim LLSC; `Queue MCS;
    `Queue CLH; `Queue Ticket ]

let of_string s = List.find_opt (fun t -> name t = s) all

type cell = {
  lock : unit -> unit;
  try_lock : unit -> bool;
  unlock : unit -> unit;
  tier : t;
}

(* Read only at primitive creation, never on a lock path. *)
let selected : t Atomic.t = Atomic.make `Default

let current () = Atomic.get selected

let with_tier t f =
  let prev = Atomic.get selected in
  Atomic.set selected t;
  Fun.protect ~finally:(fun () -> Atomic.set selected prev) f
