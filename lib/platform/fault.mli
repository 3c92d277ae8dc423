(** Fault injection for crash-safety testing.

    A {e site} is a named point in platform or workload code —
    ["waitq.pre-wait"], ["waitq.post-wakeup"], ["bb.put.body"], ... —
    where an abort may be injected. Production code calls {!site}
    unconditionally; it is free (a single ref read) unless a {e plan} is
    installed with {!with_plan}, in which case the plan decides, per hit,
    whether to raise {!Injected}.

    Determinism: a plan's decisions depend only on the order in which
    sites are hit (for {!Nth}/{!Always}) or on a seeded {!Prng} stream
    (for {!Prob}) — never on wall-clock time or the global [Random]
    state. Under a {!Detrt} run the hit order is fixed by the schedule,
    so a failing (seed, schedule) pair replays the same injections
    byte-for-byte. *)

exception Injected of string
(** Raised by {!site}; the payload is the site name. *)

(** Per-site firing rule. *)
type trigger =
  | Never
  | Always  (** every hit *)
  | Nth of int  (** exactly the [n]-th hit of this site (1-based) *)
  | Every of int  (** hits [n, 2n, 3n, ...] *)
  | Prob of float  (** each hit independently, with this probability *)

type plan

val plan : ?seed:int -> (string * trigger) list -> plan
(** [plan rules] fires according to [rules]; sites not listed never
    fire. [seed] feeds the {!Prob} decisions (default 0). *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** Install [p] for the dynamic extent of the call (the previous plan, if
    any, is restored on exit). Hit counters in [p] are reset on entry, so
    re-running the same closure replays the same injections. *)

val active : unit -> bool
(** A plan is currently installed. *)

val site : string -> unit
(** Register one hit of the named site; raises {!Injected} if the current
    plan says so, returns unit otherwise (always, when no plan is
    installed, or when the calling actor is {!mask}ed). *)

val mask : (unit -> 'a) -> 'a
(** Run [f] with injection suppressed for the calling actor (virtual
    task inside a deterministic run, OS thread otherwise); nests. Sites
    hit while masked neither fire nor advance their counters.

    Mechanisms mask their release/commit-side code — everything that
    runs after an operation's effect has committed, plus abort-recovery
    paths — because an injection there can no longer be compensated: the
    analogue of disabling thread cancellation in a cleanup handler.
    Acquire-side waits stay injectable.

    Cost: with no plan installed, [mask f] is [f ()] — one ref read, no
    lock, no allocation — so mechanisms mask unconditionally. Depth is
    tracked only under a plan, which sets an ordering rule: install a
    plan before the actors it targets enter masked regions. A region
    entered with no plan stays unmasked to a plan installed while it
    runs. *)

val masked : unit -> bool
(** The calling actor is inside {!mask} (and a plan is installed). *)

val set_task_provider : (unit -> int option) -> unit
(** How {!mask} identifies the calling actor when OS-thread identity is
    not enough; installed by {!Detrt} so masks are per virtual task
    inside a deterministic run. *)

val hits : plan -> (string * int) list
(** Observed hit counts per site (including hits that fired), most
    recent plan run. *)

val fired : plan -> int
(** Total number of injections this plan performed. *)

(** {1 Abort policies}

    What a mechanism guarantees when a user-supplied body or guard raises
    (including via {!site}). Surfaced by each mechanism library as
    [abort_policy] and reported in the robustness scorecard. *)

type abort_policy =
  [ `Propagate  (** synchronizer state restored, exception re-raised *)
  | `Poison  (** subsequent/blocked operations fail fast with an error *)
  | `Rollback  (** partial protocol steps are compensated, then re-raise *)
  ]

val abort_policy_to_string : abort_policy -> string
