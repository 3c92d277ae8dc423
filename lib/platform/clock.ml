(* CLOCK_MONOTONIC through a noalloc C stub (in sync_trace, beside the
   probe clock): immune to wall-clock steps and with true nanosecond
   resolution, which the latency histograms need — gettimeofday floats
   bottom out around a microsecond and made every sub-µs operation
   record as 0. *)
external now_ns : unit -> (int64[@unboxed])
  = "sync_clock_monotonic_byte" "sync_clock_monotonic"
[@@noalloc]

let elapsed_ns t0 = Int64.sub (now_ns ()) t0

module Virtual = struct
  type t = {
    mutex : Mutex.t;
    tick : Condition.t;
    mutable now : int;
    mutable sleepers : int;
  }

  let create ?(start = 0) () =
    { mutex = Mutex.create (); tick = Condition.create (); now = start;
      sleepers = 0 }

  let now t =
    Mutex.lock t.mutex;
    let n = t.now in
    Mutex.unlock t.mutex;
    n

  let advance t n =
    assert (n >= 0);
    Mutex.lock t.mutex;
    t.now <- t.now + n;
    Condition.broadcast t.tick;
    Mutex.unlock t.mutex

  let sleep_until t deadline =
    Mutex.lock t.mutex;
    t.sleepers <- t.sleepers + 1;
    while t.now < deadline do
      Condition.wait t.tick t.mutex
    done;
    t.sleepers <- t.sleepers - 1;
    Mutex.unlock t.mutex

  let sleepers t =
    Mutex.lock t.mutex;
    let n = t.sleepers in
    Mutex.unlock t.mutex;
    n
end
