type t = {
  multicore : bool;
  min_wait : int;
  max_wait : int;
  mutable wait : int;
  mutable seed : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* The spin bounds a backoff gets when [create] is passed none. *)
let default_min_wait = 16

let default_max_wait = 4096

(* Spin-vs-yield is decided per backoff, at creation: tests that pin the
   process to one core (or scenarios that spawn more threads than
   cores) get a yield-first backoff without a process-wide mode flip,
   and the answer tracks [Domain.recommended_domain_count] at the time
   the contended loop starts rather than at module initialization. *)
let create ?multicore ?(min_wait = default_min_wait)
    ?(max_wait = default_max_wait) () =
  if not (is_pow2 min_wait) then
    invalid_arg
      (Printf.sprintf "Backoff.create: min_wait %d not a positive power of two"
         min_wait);
  if not (is_pow2 max_wait) then
    invalid_arg
      (Printf.sprintf "Backoff.create: max_wait %d not a positive power of two"
         max_wait);
  if min_wait > max_wait then
    invalid_arg
      (Printf.sprintf "Backoff.create: min_wait %d exceeds max_wait %d"
         min_wait max_wait);
  let multicore =
    match multicore with
    | Some b -> b
    | None -> Domain.recommended_domain_count () > 1
  in
  { multicore; min_wait; max_wait; wait = min_wait; seed = 0x9e3779b9 }

let multicore t = t.multicore

(* xorshift step; cheap per-thread pseudo-randomization so that threads
   backing off together do not re-collide in lockstep. *)
let next_seed s =
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  s lxor (s lsl 17)

(* On a single-core machine spinning can never help: the thread we are
   waiting on cannot run until we give up the core. Skip straight to
   yielding there; the exponential spin phase only pays off when the
   peer is live on another core. *)
let once t =
  if not t.multicore then Thread.yield ()
  else begin
    let spins = t.min_wait + (t.seed land (t.wait - 1)) in
    t.seed <- next_seed t.seed;
    if t.wait >= t.max_wait then Thread.yield ()
    else begin
      for _ = 1 to spins do
        Domain.cpu_relax ()
      done;
      t.wait <- t.wait * 2
    end
  end

let reset t = t.wait <- t.min_wait
