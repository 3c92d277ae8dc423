(* The E27 feedback controller: close the loop from the E21 contention
   profiler to the tier knobs the platform now exposes.

   A low-frequency sampler thread reads the live probe rings
   (Probe.live_snapshot — the seqlock path, never a torn slot), folds
   the events newer than its previous sample into per-site wait/hold
   statistics, and drives two actuators:

   - per-site tier: Mutex.swap_to through the hot-swap indirection.
     The policy is a wait/hold ratio classifier with hysteresis — a
     site must vote for the same non-current tier on [hysteresis]
     consecutive samples before the controller flips it, so a single
     noisy window cannot thrash a site between tiers.

   - global spin-vs-park: Mutex.set_spin_rounds (live) and
     Backoff.set_limits (creation-scoped), steered by the observed
     median-ish wait scale. Short waits earn more spinning before the
     park; long waits cut the spin budget toward an immediate park.
     The round count prices every real-thread spin: the fast tier's
     backoff, the default tier's try_lock retries and the spin of
     Condition.wait, so it moves the mechanisms' waits too.

   The controller never blocks workers: sampling copies rings, and
   swap_to's only wait is the old cell's drain (one critical section).
   Every flip is also visible in the exported Chrome trace as a Flip
   instant against the site (emitted by Mutex.swap_to itself). *)

module Probe = Sync_trace.Probe
module Mutex = Sync_platform.Mutex
module Backoff = Sync_prims.Backoff
module Queuelock = Sync_prims.Queuelock

type policy = {
  sample_every_ms : int;
  min_samples : int;  (* acquires per site per window before deciding *)
  fast_below : float;  (* wait/hold ratio below which -> `Fast *)
  queue_above : float;  (* wait/hold ratio above which -> `Queue *)
  queue_min_wait_ns : float;
      (* absolute mean-wait floor for a `Queue vote: a high ratio over
         sub-microsecond waits is short-hold handoff overhead, which
         the CAS fast path serves better; a local-spin queue there only
         buys oversubscription stalls *)
  hysteresis : int;  (* consecutive agreeing samples before a flip *)
  queue_kind : Queuelock.kind;  (* which queue lock the hot tier uses *)
  tune_spin : bool;
  spin_cutoff_ns : float;  (* mean wait below this favours spinning *)
  revert_factor : float;
      (* post-flip probation: revert if mean wait grows past this *)
}

let default_policy =
  { sample_every_ms = 10;
    min_samples = 32;
    fast_below = 0.5;
    queue_above = 4.0;
    queue_min_wait_ns = 20_000.0;
    hysteresis = 2;
    queue_kind = Queuelock.MCS;
    tune_spin = true;
    spin_cutoff_ns = 5_000.0;
    revert_factor = 1.5 }

(* Per-site statistics for one sampling window. *)
type stats = {
  mutable acquires : int;
  mutable wait_ns : int;
  mutable holds : int;
  mutable hold_ns : int;
}

let fold_window ~since events =
  let table : (string, stats) Hashtbl.t = Hashtbl.create 16 in
  let get site =
    match Hashtbl.find_opt table site with
    | Some s -> s
    | None ->
      let s = { acquires = 0; wait_ns = 0; holds = 0; hold_ns = 0 } in
      Hashtbl.add table site s;
      s
  in
  List.iter
    (fun (e : Probe.event) ->
      if e.t0 > since then
        match e.kind with
        | Probe.Acquire ->
          let s = get e.site in
          s.acquires <- s.acquires + 1;
          s.wait_ns <- s.wait_ns + e.dur
        | Probe.Hold ->
          let s = get e.site in
          s.holds <- s.holds + 1;
          s.hold_ns <- s.hold_ns + e.dur
        | _ -> ())
    events;
  table

(* One classification: the wait/hold ratio is a load index for the
   site. Waiting a small fraction of the hold time means the CAS fast
   path wins (uncontended); waiting several multiples of it means
   handoff dominates and a local-spin FIFO queue is the scalable
   choice; in between, the default system mutex is the safe middle. *)
let classify p (s : stats) : Mutex.tier option =
  if s.acquires < p.min_samples then None
  else begin
    let wait = float_of_int s.wait_ns /. float_of_int s.acquires in
    let hold =
      float_of_int s.hold_ns /. float_of_int (max 1 s.holds)
    in
    let ratio = wait /. Float.max 1.0 hold in
    Some
      (if ratio >= p.queue_above then
         if wait >= p.queue_min_wait_ns then `Queue p.queue_kind
         else `Fast
       else if ratio <= p.fast_below then `Fast
       else `Sys)
  end

type decision = {
  d_site : string;
  d_tier : Mutex.tier;
  d_wait_ns : float;  (* mean wait that drove the vote *)
  d_ratio : float;
}

(* Post-flip probation state: the pre-flip window is the baseline the
   flipped tier must not regress. *)
type trial = {
  tr_prev : Mutex.tier;  (* tier to fall back to *)
  tr_wait : float;  (* pre-flip mean wait *)
  tr_acquires : int;  (* pre-flip window's acquire count *)
  mutable tr_age : int;  (* windows since the flip *)
}

let probation_grace = 3
(* Windows a trial may stay below the sample floor before the acquire
   count itself becomes the verdict: a tier so bad the site stops
   turning over (a spin queue starving its own waker) never produces a
   full window, so waiting for one would make exactly the worst flips
   permanent. *)

type t = {
  policy : policy;
  stop_flag : bool Atomic.t;
  mutable thread : Thread.t option;
  log_m : Stdlib.Mutex.t;
  mutable log : decision list;  (* newest first, guarded by log_m *)
  mutable samples : int;  (* sampling iterations completed *)
  (* sampler-thread state *)
  streak : (string, Mutex.tier * int) Hashtbl.t;
  probation : (string, trial) Hashtbl.t;
      (* every flip is a trial until a post-flip window confirms it *)
  banned : (string * Mutex.tier, unit) Hashtbl.t;
      (* tiers a probation already rejected for a site — the wait/hold
         ratio cannot see "the flip itself made waits worse" (it keeps
         voting the same way), so rejected trials must not repeat *)
  site_flips : (string, int) Hashtbl.t;
      (* executed flips per site: each one doubles the streak the next
         flip needs, damping tier ping-pong on a noisy boundary *)
  mutable cursor : Probe.cursor;  (* consumption frontier over the rings *)
  saved_limits : int * int;
  saved_spin : int;
}

let decisions t =
  Stdlib.Mutex.lock t.log_m;
  let l = List.rev t.log in
  Stdlib.Mutex.unlock t.log_m;
  l

let samples t = t.samples

let flips t = List.length (decisions t)

(* Global spin steering: compare the mean wait across every swappable
   site to the cutoff. Short waits double the spin budget (capped);
   long waits halve it and tighten the backoff saturation so threads
   park sooner. Both knobs recover when the regime changes back. *)
let steer_spin p table =
  let total_w = ref 0 and total_n = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      total_w := !total_w + s.wait_ns;
      total_n := !total_n + s.acquires)
    table;
  if !total_n >= p.min_samples then begin
    let mean = float_of_int !total_w /. float_of_int !total_n in
    let cur = Mutex.spin_rounds () in
    if mean <= p.spin_cutoff_ns then begin
      Mutex.set_spin_rounds (min 16 (max 1 (cur * 2)));
      Backoff.set_limits ~min_wait:16 ~max_wait:4096
    end
    else begin
      Mutex.set_spin_rounds (cur / 2);
      Backoff.set_limits ~min_wait:16 ~max_wait:1024
    end
  end

let sample_once t =
  let p = t.policy in
  let events, cursor = Probe.live_read t.cursor in
  t.cursor <- cursor;
  (* The cursor already bounds the read to fresh events, so the fold
     keeps everything. *)
  let table = fold_window ~since:min_int events in
  let log_decision d =
    Stdlib.Mutex.lock t.log_m;
    t.log <- d :: t.log;
    Stdlib.Mutex.unlock t.log_m
  in
  let mean_wait (s : stats) =
    float_of_int s.wait_ns /. float_of_int (max 1 s.acquires)
  in
  let mean_ratio (s : stats) =
    mean_wait s
    /. Float.max 1.0
         (float_of_int s.hold_ns /. float_of_int (max 1 s.holds))
  in
  let execute_flip site name (s : stats) want =
    let from = Mutex.current_tier site in
    if Mutex.swap_to site want then begin
      Hashtbl.replace t.site_flips name
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.site_flips name));
      (* Every flip is a trial judged against the deciding window. *)
      (match from with
      | Some prev ->
        Hashtbl.replace t.probation name
          { tr_prev = prev; tr_wait = mean_wait s;
            tr_acquires = s.acquires; tr_age = 0 }
      | None -> ());
      log_decision
        { d_site = name; d_tier = want; d_wait_ns = mean_wait s;
          d_ratio = mean_ratio s }
    end
  in
  let judge_trial site name (tr : trial) s_opt =
    tr.tr_age <- tr.tr_age + 1;
    let acquires =
      match s_opt with Some s -> s.acquires | None -> 0
    in
    (* Two ways a trial fails: a full window whose waits regressed past
       the baseline, or — when the flipped tier is so bad the site
       stops turning over and no window ever fills — an acquire count
       that collapsed relative to a busy baseline. *)
    let verdict =
      match s_opt with
      | Some s when s.acquires >= p.min_samples ->
        Some (mean_wait s > tr.tr_wait *. p.revert_factor)
      | _ when tr.tr_age >= probation_grace ->
        Some
          (tr.tr_acquires >= p.min_samples
          && acquires * 4 < tr.tr_acquires)
      | _ -> None
    in
    match verdict with
    | None -> ()
    | Some regressed ->
      Hashtbl.remove t.probation name;
      if regressed then (
        match Mutex.current_tier site with
        | Some bad ->
          Hashtbl.replace t.banned (name, bad) ();
          if Mutex.swap_to site tr.tr_prev then
            let wait =
              match s_opt with Some s -> mean_wait s | None -> 0.
            in
            let ratio =
              match s_opt with Some s -> mean_ratio s | None -> 0.
            in
            log_decision
              { d_site = name; d_tier = tr.tr_prev; d_wait_ns = wait;
                d_ratio = ratio }
        | None -> ())
  in
  List.iter
    (fun site ->
      let name = site.Mutex.name in
      let s_opt = Hashtbl.find_opt table name in
      match Hashtbl.find_opt t.probation name with
      | Some tr ->
        (* Probation verdict instead of classification: the ratio
           signal cannot see that a flip itself made waits worse — a
           worse tier produces the same vote even harder. *)
        Hashtbl.remove t.streak name;
        judge_trial site name tr s_opt
      | None -> (
        match s_opt with
        | None -> Hashtbl.remove t.streak name
        | Some s -> (
          match classify p s with
          | None -> Hashtbl.remove t.streak name
          | Some want ->
            if
              Mutex.current_tier site = Some want
              || Hashtbl.mem t.banned (name, want)
            then Hashtbl.remove t.streak name
            else begin
              let n =
                match Hashtbl.find_opt t.streak name with
                | Some (w, n) when w = want -> n + 1
                | _ -> 1
              in
              (* Each executed flip doubles the streak the next one
                 needs: a site oscillating across a classifier boundary
                 settles instead of ping-ponging tiers. *)
              let flips_so_far =
                Option.value ~default:0 (Hashtbl.find_opt t.site_flips name)
              in
              let need = p.hysteresis * (1 lsl min 6 flips_so_far) in
              if n >= need then begin
                Hashtbl.remove t.streak name;
                execute_flip site name s want
              end
              else Hashtbl.replace t.streak name (want, n)
            end)))
    (Mutex.swap_sites ());
  if p.tune_spin then steer_spin p table;
  t.samples <- t.samples + 1

let make policy =
  { policy;
    stop_flag = Atomic.make false;
    thread = None;
    log_m = Stdlib.Mutex.create ();
    log = [];
    samples = 0;
    streak = Hashtbl.create 16;
    probation = Hashtbl.create 16;
    banned = Hashtbl.create 16;
    site_flips = Hashtbl.create 16;
    cursor = Probe.start_cursor;
    saved_limits = Backoff.limits ();
    saved_spin = Mutex.spin_rounds () }

let create ?(policy = default_policy) () = make policy

let start ?(policy = default_policy) () =
  let t = make policy in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get t.stop_flag) do
          Thread.delay (float_of_int policy.sample_every_ms /. 1e3);
          if not (Atomic.get t.stop_flag) then sample_once t
        done)
      ()
  in
  t.thread <- Some th;
  t

let stop t =
  Atomic.set t.stop_flag true;
  (match t.thread with
  | Some th ->
    Thread.join th;
    t.thread <- None
  | None -> ());
  (* Leave the process as found: the tuned globals are experiment
     state, not configuration. *)
  let min_wait, max_wait = t.saved_limits in
  Backoff.set_limits ~min_wait ~max_wait;
  Mutex.set_spin_rounds t.saved_spin

let with_controller ?policy f =
  let t = start ?policy () in
  match f () with
  | v ->
    stop t;
    (v, t)
  | exception e ->
    stop t;
    raise e
