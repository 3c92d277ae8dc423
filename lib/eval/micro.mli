(** The micro-benchmarks no other harness prices (the [micro] axis).

    Single-thread costs of the constructs the [bench_suite] ladder does
    not time (E7 Mesa monitor and eventcount, E8a CSP and eventcount
    buffer pairs, E10 reads, E12 path-expression engines, E19a fault
    and timed-wait sites, E22 weak semaphore and rings on the fast
    tier), each the median ns per call of one calibrated batch size;
    plus the small multi-thread runs: E9 readers-writers throughput per
    variant, E19b abort-recovery throughput, and the weak-semaphore
    barge count. Every row is one {!Sync_metrics.Bench_doc} row with
    coords [section], [case] and [tier]. *)

val run :
  full:bool -> progress:(Sync_metrics.Bench_doc.row -> unit) ->
  Sync_metrics.Bench_doc.row list
(** Every row, in section order. Quick runs shrink the batches and the
    multi-thread runs so the whole axis takes well under 2 s. *)

val to_json : full:bool -> Sync_metrics.Bench_doc.row list -> Sync_metrics.Emit.t
