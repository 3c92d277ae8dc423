(** The exploration axis (E26): bounded exhaustive DFS vs dynamic
    partial-order reduction over the deterministic scenario catalog, at a
    shared schedule budget per row.

    Rows where DFS completes are differential soundness checks — the two
    engines must report the same distinct failure modes, with DPOR
    exploring no more schedules. Rows where only DPOR completes are the
    axis headline: every Mazurkiewicz equivalence class of a schedule
    tree naive DFS cannot finish, with the anomaly set machine-checked
    (footnote-3 writer handoff, E19 cancellation storms). *)

type engine = {
  explored : int;
  complete : bool;
  modes : string list;  (** distinct failure messages, sorted *)
  secs : float;
}

type row = {
  scenario : string;
  budget : int;  (** [max_schedules] shared by both engines *)
  dfs : engine;
  dpor : engine;
  races : int;  (** backtrack points the DPOR analysis planted *)
  workers : int;  (** domains the DPOR run used *)
}

val run : ?full:bool -> ?progress:(row -> unit) -> unit -> row list
(** The default matrix is CI-sized (deadlock, small bounded buffer, E19
    storm, footnote-3) on one worker; [full] adds frontier shapes for the
    non-blocking deep job and shards every DPOR run over two domains,
    except the storm rows, which are pinned to one (process-global fault
    registry). *)

val sound : row list -> bool
(** Every row where DFS completed: DPOR also completed, agreed on the
    failure modes, and explored no more schedules. *)

val row_doc : row -> Sync_metrics.Bench_doc.row
(** Budget, races, workers and each engine's explored count, completion
    (1/0), distinct failure modes and seconds; [reduction] where DFS
    completed. A row that disagrees with the ground truth is failed. *)

val to_json : row list -> Sync_metrics.Emit.t
