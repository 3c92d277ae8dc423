(** The bloom_serve daemon core (E24): accept, admit, dispatch, drain.

    Architecture: one acceptor thread feeds accepted connections into a
    {e bounded} dispatch queue (two strong semaphores around a FIFO —
    the queue depth is the admission controller's first gate); a fixed
    pool of worker threads each serves one connection at a time,
    request by request. When the dispatch queue is full the acceptor
    sheds: it writes one [Overloaded] reply with a retry hint and
    closes, so clients always get a typed answer instead of a SYN
    backlog stall. Per-problem token buckets gate individual requests
    the same way.

    Graceful drain ({!drain}, or SIGTERM via bloom_serve): the listener
    closes, queued connections are still served, workers finish their
    in-flight request, reply, and hang up; the worker pool is woken in
    one batched [Semaphore.v_n] post (the E22 batching substrate). If
    the drain exceeds its grace period the server reports how many
    workers are still live on stderr and force-closes every queued and
    in-flight connection, so clients see EOF instead of a hang; the
    stuck workers unwind once the service stops.

    Chaos: when configured, every connection gets a {!Chaos} stream
    seeded by [(seed, conn_id)]; byte-level faults are replayable by
    seed and forceable via the E19 fault plan sites. *)

type addr = Unix_sock of string | Tcp of int

type config = {
  addr : addr;
  workers : int;  (** connection-serving threads = max concurrent conns *)
  accept_queue : int;  (** dispatch queue bound; beyond it, shed *)
  bucket_rate : float;  (** per-problem token refill, tokens/s *)
  bucket_burst : int;
  grace_ms : int;  (** drain grace before the force-close escalation *)
  default_deadline_ns : int64;  (** budget for requests that send 0 *)
  chaos : Chaos.config option;
  service : Service.config;
}

val default_config : addr -> config
(** 8 workers, accept queue 64, 2000 tokens/s burst 256, 2 s grace,
    250 ms default deadline, no chaos. *)

type stats = {
  accepted : int;
  shed : int;  (** connections refused by the bounded accept queue *)
  served : int;  (** requests answered (any typed reply) *)
  overloaded : int;  (** [Overloaded] replies (bucket or queue shed) *)
  deadline_exceeded : int;
  bad_request : int;
  chaos_resets : int;  (** connections killed by the chaos layer *)
}

type t

val start : config -> t
(** Bind, listen and spawn acceptor + workers (+ the service ticker).
    @raise Unix.Unix_error when the address cannot be bound. *)

val sockaddr : t -> Unix.sockaddr

val stats : t -> stats

val draining : t -> bool

val drain : t -> bool
(** Graceful stop; see above. Blocks until workers exit or the grace
    period (plus escalation) elapses. [true] iff the pool drained
    within the grace period (no escalation) — bloom_serve turns this
    into its exit status, which is what the drill's [drain_clean]
    checks. Idempotent ([true] on repeat calls). *)
