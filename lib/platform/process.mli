(** Process abstraction: spawn concurrent activities on a chosen backend.

    The paper's subjects are blocking-semantics constructs, whose behaviour
    depends on interleaving rather than physical parallelism. We therefore
    run "processes" as OCaml systhreads by default (cheap, preemptive), and
    as OCaml 5 domains when true parallelism is wanted (dedicated test
    suites and benches). The two backends expose one interface so every
    solution and workload is backend-agnostic. *)

type backend = [ `Thread | `Domain | `Det ]

type t
(** A running process handle. *)

val default_backend : backend ref
(** Backend used when [spawn] is not given one; initially [`Thread]. *)

val mode : unit -> backend
(** The backend the next [spawn] will effectively use: [`Det] whenever a
    {!Detrt} deterministic run is in progress, [!default_backend]
    otherwise. *)

val spawn : ?name:string -> ?backend:backend -> (unit -> unit) -> t
(** Start [f] concurrently. Any exception escaping [f] is captured and
    re-raised by {!join}. Inside a {!Detrt} run the [backend] argument is
    overridden: processes always spawn as deterministic virtual tasks
    ([`Det]), so the scenario drivers work unchanged under controlled
    scheduling. [name] names a det task (see {!Detrt.spawn}), which is
    how a {!Detrt.Deadlock} report names it; thread and domain processes
    ignore it. *)

val join : t -> unit
(** Wait for completion; re-raises the process's escaped exception, if
    any. *)

val run_all : ?backend:backend -> (unit -> unit) list -> unit
(** Spawn every function, then join them all. If several fail, the first
    (by list position) exception is re-raised after all joins complete. *)

val parallelism_available : unit -> int
(** Domains the runtime recommends ([Domain.recommended_domain_count]). *)
