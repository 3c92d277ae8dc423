(** The service robustness axis (E24): does the multi-process tier keep
    its promises end to end?

    Three scenarios, each against a real [bloom_serve] daemon spawned as
    a child process and driven over the wire protocol:

    - {b load}: plain open-loop load, then SIGTERM. Passes when every
      request reached a typed outcome (zero hung connections) and the
      daemon drained within its grace period.
    - {b chaos}: the same with the connection-chaos layer on (seeded
      drop / delay / truncate / reset). Passes on the same invariants —
      byte-level faults must surface as typed retries/timeouts, never
      as a stuck client.
    - {b crash}: the kill -9 drill — crash the daemon mid-load, restart
      it, keep driving. Passes when clients recover onto the restarted
      daemon ([recovered] > 0), nothing hangs, and the survivor drains
      clean.

    Windows scale with [SYNC_LOAD_MS] like every other live axis. *)

type row = {
  scenario : string;  (** ["load"], ["chaos"] or ["crash"] *)
  problem : string;  (** served problem mix driven at the daemon *)
  ok : int;  (** requests answered [Ok] *)
  deadline : int;  (** typed deadline/timeout outcomes *)
  overloaded : int;  (** terminal overload outcomes *)
  conn_failed : int;  (** terminal connection failures *)
  hung : int;  (** client actors that failed to terminate — must be 0 *)
  recovered : int;  (** crash scenario: [Ok] replies after the restart *)
  drain_clean : bool;  (** the (last) daemon drained on SIGTERM *)
  passed : bool;
  detail : string;  (** failure explanation, or a summary when clean *)
}

val find_exe : unit -> (string, string) result
(** Locate the [bloom_serve] executable: [$SERVE_EXE] when set,
    otherwise next to the running executable, otherwise the usual
    [_build] layout relative to the working directory. *)

val run : ?progress:(row -> unit) -> unit -> row list
(** Execute all three scenarios (a failure to locate or boot the daemon
    yields a single failed row rather than an exception). *)

val all_ok : row list -> bool

val to_json : row list -> Sync_metrics.Emit.t
