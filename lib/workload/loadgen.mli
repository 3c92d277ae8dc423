(** The load engine: drive a {!Target.instance} with concurrent workers
    on real threads or OCaml 5 domains and measure steady-state
    throughput and latency.

    Two loop disciplines:

    - {b closed loop} ([Closed]): each worker issues its next operation
      the moment the previous one completes. Measures the mechanism's
      sustainable capacity at a given concurrency; latency is pure
      service + queueing inside the synchronizer.
    - {b open loop} ([Open_loop]): operations arrive on a schedule
      (Poisson or uniformly spaced) at a configured aggregate rate,
      independent of completions. Latency is measured from the
      {e intended} arrival time, so when the system falls behind, the
      queueing delay appears in the recorded tail instead of being
      silently absorbed — the coordinated-omission correction
      (see docs/workload.md).

    Measurement protocol: workers record into per-worker warmup
    recorders until the coordinator flips the run into its steady-state
    window, then into per-worker steady recorders; the warmup recorders
    are discarded, the steady ones are merged after join. Worker count,
    windows, mode and seed come from {!config}; every run with the same
    seed draws the same arrival/op-mix randomness. *)

type arrival =
  | Poisson  (** memoryless arrivals at the nominal rate *)
  | Uniform_spaced  (** deterministic, evenly spaced arrivals *)
  | Diurnal
      (** Poisson modulated by a slow sinusoid (E27): the instantaneous
          rate swings between roughly 0.1x and 1.9x nominal over a
          100 ms period, so the contention regime — and therefore the
          best tier — changes within a single run. *)
  | Bursty
      (** two-state mixture (E27): occasional long gaps, dense bursts
          between them; same nominal rate, far higher variance. *)

type mode = Closed | Open_loop of { rate_per_s : float; arrival : arrival }

val arrival_name : arrival -> string
(** ["poisson"], ["uniform"], ["diurnal"], ["bursty"] — the report's
    arrival labels. *)

val arrival_of_string : string -> arrival option

val diurnal_period_ms : int
(** Period of the diurnal sinusoid (100 ms). *)

val diurnal_amplitude : float
(** Amplitude of the diurnal rate swing (0.9). *)

val burst_gap_p : float
(** Probability an arrival opens a long gap in the bursty mixture. *)

val burst_gap_scale : float
(** Gap length as a multiple of the nominal mean inter-arrival. *)

val burst_dense_scale : float
(** In-burst inter-arrival as a multiple of the nominal mean. *)

type config = {
  workers : int;  (** concurrent clients (>= 1) *)
  backend : [ `Thread | `Domain ];  (** systhreads or real domains *)
  duration_ms : int;  (** steady-state measurement window *)
  warmup_ms : int;  (** discarded warmup window *)
  mode : mode;
  seed : int;  (** arrival schedules and op-mix draws *)
  think_us : int;
      (** closed-loop think time per operation, microseconds (default
          0). Slept {e outside} the latency window, before each
          operation: models interactive clients that pause between
          requests, so aggregate throughput grows with worker count
          until the synchronizer saturates. Scaling experiments (E23)
          rely on it to keep a 1-vs-N-domain comparison meaningful even
          on hosts with few cores. Ignored in open-loop mode's arrival
          schedule sense — the sleep still happens, so leave it 0
          there. *)
}

val default_config : config
(** 4 domain workers, closed loop, 1000 ms steady after 200 ms warmup,
    seed 42, no think time. *)

val duration_from_env : default:int -> int
(** The [SYNC_LOAD_MS] environment knob (CI shortens runs with it):
    {!duration_of} its value. *)

val duration_of : default:int -> string option -> int
(** [default] when the value is absent or empty, the value when it is a
    positive integer.
    @raise Invalid_argument naming [SYNC_LOAD_MS] on any other value. *)

val warmup_for : int -> int
(** The warmup the axis grids give a steady window of this many ms:
    50 ms, or the window itself when it is shorter, so a shortened
    [SYNC_LOAD_MS] run never spends most of its time warming up. *)

val run : Target.instance -> config -> Report.t
(** Execute one run and stop the instance. The report's summary covers
    only the steady-state window.
    @raise Invalid_argument on a non-positive worker count, window, or
    open-loop rate. *)
