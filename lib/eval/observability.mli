(** E21: the tracing / contention observability axis.

    Runs one short traced closed-loop load per mechanism — three thread
    workers on a capacity-1 bounded buffer, contended enough that every
    instrumented layer fires — and audits the recorded event stream: a
    mechanism is observable when the run produced operation spans, wait
    spans and wake instants with no self-check failures. The axis scores
    what the trace layer can {e see}, complementing E20 (which scores
    what the mechanism can {e do}). *)

type row = {
  mechanism : string;
  problem : string;
  events : int;  (** retained events in the snapshot *)
  op_spans : int;
  wait_spans : int;
  wakes : int;  (** signal + handoff instants *)
  spurious : int;
  dropped : int;  (** events lost to ring wraparound *)
  failures : int;  (** self-check failures during the traced load *)
  ok : bool;
}

type traced = {
  row : row;
  events : Sync_trace.Probe.event list;
  profile : Sync_trace.Profile.t;
}

val trace_one :
  ?duration_ms:int ->
  problem:string ->
  mechanism:string ->
  unit ->
  (traced, string) result
(** One traced load (default 25 ms steady state). The error names an
    unknown problem/mechanism pair. *)

val run_traced :
  ?duration_ms:int ->
  ?problem:string ->
  ?mechanisms:string list ->
  unit ->
  traced list
(** {!trace_one} for every mechanism with a target for [problem]
    (default ["bounded-buffer"]); a mechanism without a target yields an
    empty, failed row instead of an error. *)

val run :
  ?duration_ms:int ->
  ?problem:string ->
  ?mechanisms:string list ->
  unit ->
  row list
(** {!run_traced}, rows only — the scorecard entry point. *)

val all_ok : row list -> bool

val ab : unit -> Sync_metrics.Bench_doc.row
(** The tracing A/B row: the default-tier fcfs/semaphore cell at one
    domain, untraced then traced in the same run, best of three windows
    per arm ([SYNC_LOAD_MS], default 200 ms): both throughputs and the
    traced arm's [overhead_pct]. A cell that does not run clean is a
    row with its status and no metrics. *)

val to_json : ?ab:Sync_metrics.Bench_doc.row -> row list -> Sync_metrics.Emit.t
(** With [ab], the A/B row follows the mechanism rows and the summary
    records the [probe_clock] source the traced arm read. *)
