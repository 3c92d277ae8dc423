(** The E24 client driver: open-loop load against a running bloom_serve
    daemon over its wire protocol — the `--serve` mode of the workload
    engine.

    Each of [connections] client actors owns one socket connection and
    fires requests on its own Poisson (or uniform) arrival schedule at
    [rate_per_s / connections]; latency is measured from the {e
    intended} arrival, so server-side queueing and retry delay land in
    the recorded tail (the same coordinated-omission correction as
    {!Loadgen}). Actors churn: every [churn_every] requests the
    connection is closed and reopened, so accept-path behaviour stays
    exercised throughout the run.

    Failure handling is the client half of the robustness story: an
    [Overloaded] reply honours the server's retry hint, a reset/EOF
    reconnects, and both retry under capped exponential backoff with
    full jitter ({!Sync_serve.Client.backoff_ms}) up to [max_retries];
    a request that exhausts its retries is recorded as a failure, never
    silently dropped. Every actor terminates — requests carry deadlines
    and sockets carry receive timeouts — so a crashed or wedged server
    shows up as typed outcome counts with {b zero hung connections},
    which is exactly what the Service axis and the chaos drill
    assert. *)

type problem = [ `Queue | `Sched | `Timer | `Kv | `Mix ]

val problem_of_string : string -> (problem, string) result

val problem_to_string : problem -> string

type config = {
  connections : int;
  rate_per_s : float;  (** aggregate across all connections *)
  arrival : Loadgen.arrival;
  duration_ms : int;
  warmup_ms : int;  (** samples before steady state are discarded *)
  seed : int;
  problem : problem;
  deadline_ns : int64;  (** per-request budget sent in the header *)
  churn_every : int;  (** reconnect after this many requests; 0 = never *)
  backoff_base_ms : int;
  backoff_cap_ms : int;
  max_retries : int;
}

val default_config : config
(** 8 connections, 400 req/s Poisson, 1 s steady after 200 ms warmup,
    50 ms deadlines, churn every 64 requests, backoff 2..200 ms, 6
    retries, seed 42. *)

(** Terminal outcome counts across the run (steady + warmup). Every
    request ends in exactly one of the first five; [hung] counts actors
    that failed to terminate by the join deadline (always 0 unless
    something is deeply wrong — it gates the chaos drill). *)
type outcome = {
  ok : int;
  overloaded : int;  (** terminal [Overloaded] after retries exhausted *)
  deadline : int;  (** [Deadline_exceeded] replies + client-side timeouts *)
  conn_failed : int;  (** terminal reset/EOF after retries exhausted *)
  bad : int;  (** [Bad_request] / [Shutting_down] / undecodable *)
  retries : int;  (** total retry attempts (informational) *)
  reconnects : int;  (** churn + failure-driven reconnections *)
  hung : int;
}

val outcome_fields : outcome -> (string * int) list
(** Every count, in declaration order. *)

val outcome_to_json : outcome -> Sync_metrics.Emit.t

val run : sockaddr:Unix.sockaddr -> config -> Report.t * outcome
(** Drive a running server. The report rows carry op labels per served
    problem ("put", "get", "seek", ...); failures in the summary are
    requests whose terminal outcome was not [Ok]. *)

type drill = {
  report : Report.t;
  outcome : outcome;
  ok_before_kill : int;
  ok_after_restart : int;  (** successful requests served by the restarted daemon *)
  drain_clean : bool;  (** the restarted daemon drained on SIGTERM *)
}

val drill :
  exe:string ->
  sock:string ->
  ?server_args:string list ->
  ?kill_at_ms:int ->
  ?restart_after_ms:int ->
  config ->
  (drill, string) result
(** The kill -9 drill (Service axis, tier-1): spawn [exe] serving
    [sock], drive open-loop load, [kill -9] the daemon mid-run, restart
    it on the same socket, keep driving, then SIGTERM the survivor and
    check the drain. Clients must ride through the crash on their
    backoff path: the result reports recovery ([ok_after_restart]) and
    the zero-hung invariant via [outcome.hung]. *)
