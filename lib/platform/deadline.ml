(* [Wall] deadlines are CLOCK_MONOTONIC nanoseconds, read through the
   same noalloc stub as [Clock.now_ns] and kept as an int, so [expired]
   allocates nothing. The external is declared here, not reached through
   Clock: Clock's virtual half uses the Mutex facade, and Mutex needs
   deadlines for [try_lock_for]. *)

type t = Wall of int | Polls of int ref | Never

external clock_ns : unit -> (int64[@unboxed])
  = "sync_clock_monotonic_byte" "sync_clock_monotonic"
[@@noalloc]

let[@inline] now_ns () = Int64.to_int (clock_ns ())

(* A non-positive budget is already expired: the timed waits promise a
   fast reject with no syscall-level park on timeout = 0, and under
   Detrt that means a poll budget of zero, not the usual floor of 2
   (the serve tier fast-rejects expired request deadlines on this). *)
let budget_of_ns ns =
  if Int64.compare ns 0L <= 0 then 0
  else
    let polls = Int64.to_int (Int64.div ns 50_000L) in
    max 2 (min 100_000 polls)

let after_ns ns =
  if Detrt.active () then Polls (ref (budget_of_ns ns))
  else
    let now = now_ns () in
    if Int64.compare ns 0L <= 0 then Wall now
    else if Int64.compare ns (Int64.of_int (max_int - now)) >= 0 then
      (* Past the int range: never fires. *)
      Wall max_int
    else Wall (now + Int64.to_int ns)

let after_s s = after_ns (Int64.of_float (s *. 1e9))

let never = Never

let expired = function
  | Never -> false
  | Wall d -> now_ns () >= d
  | Polls b ->
    if !b <= 0 then true
    else begin
      decr b;
      false
    end
