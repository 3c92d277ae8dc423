(** The clock behind {!Probe}'s timestamps.

    On x86-64 it reads the time stamp counter and turns ticks into
    nanoseconds with a calibrated affine map; anywhere else, and before
    calibration, it reads [CLOCK_MONOTONIC]. Either way a read is one
    noalloc C call returning an untagged int, and its values are
    nanoseconds on [CLOCK_MONOTONIC]'s time line, to within the
    calibration error.

    The TSC is used only where the box makes it safe: the kernel's
    current clocksource is [tsc] (the kernel checked that the counters
    agree across CPUs) and the CPU reports an invariant TSC
    ([constant_tsc] and [nonstop_tsc]). That is a property of the box,
    read from [/sys] and [/proc/cpuinfo] at calibration; nothing else
    selects the source. *)

type source = Tsc | Monotonic

val source_name : source -> string
(** ["tsc"] or ["monotonic"]. *)

val choose : clocksource:string -> cpu_flags:string list -> x86_64:bool -> source
(** The decision, as a pure function of the kernel's current
    clocksource (surrounding whitespace ignored), the CPU's flags and
    whether the code runs on x86-64: {!Tsc} only for [tsc] with both
    [constant_tsc] and [nonstop_tsc] on x86-64. *)

external now_ns : unit -> (int[@untagged])
  = "sync_probe_clock_now_byte" "sync_probe_clock_now"
[@@noalloc]
(** The probe clock, in nanoseconds: the TSC once {!calibrate} has
    published a calibration, [CLOCK_MONOTONIC] otherwise. Monotonic per
    thread either way. *)

val calibrate : unit -> unit
(** Choose the source for this box and, for {!Tsc}, calibrate: anchor
    the TSC against [CLOCK_MONOTONIC] at each end of a window of at
    least 2 ms (each anchor the tightest of 5 mono-tsc-mono triples),
    then publish the map. Runs once per process; later calls return at
    once. {!Probe.enable} calls it, so a process that never traces
    never pays for it. *)

val source : unit -> source
(** The source {!now_ns} reads: {!Monotonic} until {!calibrate} has
    published a TSC calibration. *)
