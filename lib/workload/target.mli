(** Loadable mechanism x problem targets.

    A target packages one registered solution from [sync_problems] —
    the same first-class modules the conformance registry verifies —
    behind a uniform "array of operations" interface the load generator
    can drive without knowing the problem. Each instance owns a fresh
    self-checking resource (ring / slot / store / disk), so an
    ill-synchronized mechanism fails the run loudly instead of producing
    a fast-but-wrong throughput number.

    Operation selection semantics matter for liveness: for the
    producer/consumer problems (bounded buffer, one-slot buffer) every
    worker must execute the full [put; get] cycle per iteration —
    per-worker balance is what makes an all-workers-blocked-in-[put]
    state unreachable and lets the run drain cleanly at shutdown. Those
    targets declare {!Cycle}; request/response problems (readers-writers,
    FCFS, disk) declare {!Weighted} mixes or single-op cycles.

    The alarm-clock problem historically sat out (a wall-clock load on
    it measures its virtual-clock driver as much as the mechanism); E27
    brings it in with the driver embedded — a ticker thread inside the
    instance, identical for every tier, so tier-to-tier ratios still
    isolate the synchronizer. *)

type op = {
  name : string;
  run : rng:Sync_platform.Prng.t -> pid:int -> unit;
      (** Execute one operation. [rng] is the calling worker's private
          generator (parameter skew); [pid] its worker index. *)
}

type selection =
  | Cycle  (** run the whole op array in order, once per iteration *)
  | Weighted of int array
      (** pick one op per iteration with these relative weights *)

type tier = Sync_prims.Tier.t
(** Which platform substrate the instance is built on (see
    {!Sync_prims.Tier}). Mechanism code and semantics are identical
    across tiers; only the substrate's cost profile changes. [`Fast]
    also gives the bounded buffer the Vyukov {!Sync_resources.Fastring}
    resource (E22). *)

type instance = {
  meta : Sync_taxonomy.Meta.t;  (** the driven solution's registry metadata *)
  tier : string;  (** {!Sync_prims.Tier.name} of the instance's tier *)
  ops : op array;
  selection : selection;
  stop : unit -> unit;  (** release solution resources (CSP servers etc.) *)
}

type params = {
  capacity : int;  (** bounded-buffer slots (default 8) *)
  work : int;  (** busywork iterations inside each resource body (default 0) *)
  read_pct : int;  (** readers-writers read share, 0..100 (default 90) *)
  tracks : int;  (** disk cylinders (default 256) *)
  hot_pct : int;
      (** disk skew: percentage of requests aimed at the first tenth of
          the tracks (default 0 = uniform) *)
}

val default_params : params

val problems : string list
(** Problems with load targets, in the paper's order. *)

val mechanisms : problem:string -> string list
(** Mechanisms with a target for [problem] (empty for unknown). *)

val create :
  ?params:params -> ?tier:tier -> problem:string -> mechanism:string ->
  unit -> (instance, string) result
(** Build a fresh instance (fresh resource, fresh synchronizer). The
    whole solution is built under {!Sync_prims.Tier.with_tier}[ tier];
    no effect inside a {!Detrt} run, where the deterministic substrate
    always wins. The error names the valid choices.

    With [~tier:(`Prim c)] the build runs under the class restriction
    and may raise {!Sync_prims.Prims.Unsupported} when the mechanism
    needs a primitive class [c] cannot express — a typed outcome the
    hierarchy axis records, not an error string. *)
