(** The hardware-primitive hierarchy axis (E25).

    Herlihy's hierarchy ranks atomic primitives by what they can build;
    this axis measures the question on the repo's own mechanisms. Every
    registered mechanism x problem load target is rebuilt with the
    platform's mutexes and counting semaphores constructed from one
    restricted atomic class ({!Sync_prims.Prims}) — read/write registers
    (Lamport bakery with the bounded-timestamp fix), CAS only, FAA only
    (ticket), or LL/SC emulated from CAS with ABA tags — and driven by
    the E20 workload engine, against the unrestricted native substrate.

    Each grid cell is a typed {!Cell.t}: supported (with measured
    throughput and latency), unsupported (the class cannot express a
    primitive the mechanism needs — e.g. read/write registers cannot
    grant FCFS semaphore wakeups, which take an order-assigning RMW), or
    failed (a self-checking resource caught a correctness violation). A
    complete scorecard has zero failures: inexpressibility is a result,
    a crash is a bug. *)

module Prims = Sync_prims.Prims

type spec = {
  classes : Prims.cls list;
  problems : string list;
  mechanisms : string list option;
      (** [None] = every mechanism the workload engine offers for each
          problem except [epoch], whose read path no class restriction
          reaches *)
  domains : int list;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
}

val default_spec : unit -> spec
(** All five classes x {bounded-buffer, fcfs, readers-writers} x all
    mechanisms x domain counts [1; 4]; steady window from
    [SYNC_LOAD_MS] (default 100 ms), closed loop on domains. *)

val run : ?progress:(Cell.row -> unit) -> spec -> Cell.row list
(** {!Cell.grid} over the classes' [`Prim] tiers: a rejected
    construction is a single [Unsupported] row with [domains = 0]. *)

val all_ok : Cell.row list -> bool
(** No [Failed] rows. *)

val to_json : spec -> Cell.row list -> Sync_metrics.Emit.t
(** The committed [BENCH_E25.json] document: one row per cell, the
    atomic class as its tier. *)
