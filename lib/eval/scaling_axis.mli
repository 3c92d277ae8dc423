(** E23: the scalable-lock tier, measured — the scaling axis.

    Two grids. The {e queue grid} rebuilds mechanism x problem load
    targets with every platform mutex a local-spin queue lock
    ({!Sync_prims.Queuelock}: MCS, CLH, proportional-backoff ticket)
    and measures each cell with {!Cell.grid}; a pair the engine does not
    offer yields a typed [Unsupported] row — never a silent skip or a
    fake 0 ops/s. The {e epoch rows} drive the readers-writers database
    on the {!Sync_problems.Rw_epoch} read-mostly path (plus reference
    mechanisms) at increasing domain counts under closed-loop think
    time; the committed rows are what the scaling-sanity CI gate holds
    to monotonically increasing read throughput. *)

type epoch_row = {
  e_mechanism : string;  (** ["epoch"] or a serializing reference *)
  e_domains : int;
  e_cell : Cell.t;
  e_read_per_s : float;  (** read-op completions per second *)
}

type t = { queue : Cell.row list; epoch : epoch_row list }

type spec = {
  kinds : Sync_prims.Queuelock.kind list;
  problems : string list;
  mechanisms : string list;
      (** fixed list: pairs the engine lacks become typed rows *)
  domains : int list;
  epoch_mechanisms : string list;
  epoch_domains : int list;
  think_us : int;  (** closed-loop think time for the epoch rows *)
  read_pct : int;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
}

val default_spec : unit -> spec
(** All three kinds; bounded-buffer + readers-writers over
    semaphore/monitor/ccr/eventcount/epoch (the last two exercising the
    typed-unsupported path); epoch rows at 1/2/4 domains, 500 us think
    time, 95% reads; duration honors [SYNC_LOAD_MS] (default 150 ms). *)

val run :
  ?progress_queue:(Cell.row -> unit) -> ?progress_epoch:(epoch_row -> unit) ->
  spec -> t

val all_ok : t -> bool
(** No [Failed] row anywhere (typed [Unsupported] rows are fine). *)

val epoch_monotonic : t -> bool
(** The tentpole claim on measured rows: the ["epoch"] rows' read
    throughput strictly increases across their sorted domain counts
    (false when fewer than two supported epoch rows exist). *)

val epoch_doc : epoch_row -> Sync_metrics.Bench_doc.row
(** The row as written to the document (on the default tier). *)

val to_json : spec -> t -> Sync_metrics.Emit.t
(** The committed [BENCH_E23.json] document: the queue-lock rows, then
    the epoch rows on the default tier; [epoch_monotonic] in the
    summary. *)
