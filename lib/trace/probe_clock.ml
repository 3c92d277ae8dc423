type source = Tsc | Monotonic

let source_name = function Tsc -> "tsc" | Monotonic -> "monotonic"

let choose ~clocksource ~cpu_flags ~x86_64 =
  if
    x86_64
    && String.trim clocksource = "tsc"
    && List.mem "constant_tsc" cpu_flags
    && List.mem "nonstop_tsc" cpu_flags
  then Tsc
  else Monotonic

external now_ns : unit -> (int[@untagged])
  = "sync_probe_clock_now_byte" "sync_probe_clock_now"
[@@noalloc]

external has_tsc : unit -> bool = "sync_probe_clock_has_tsc" [@@noalloc]

external calibrate_begin : unit -> unit = "sync_probe_clock_calibrate_begin"
[@@noalloc]

external calibrate_finish : int -> int = "sync_probe_clock_calibrate_finish"
[@@noalloc]

let first_line path =
  match open_in path with
  | exception Sys_error _ -> ""
  | ic ->
    let l = try input_line ic with End_of_file -> "" in
    close_in_noerr ic;
    l

(* The CPU flags: the first "flags" line of /proc/cpuinfo (the boot CPU's). *)
let cpu_flags () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> []
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> []
      | l -> (
        match String.index_opt l ':' with
        | Some i when String.trim (String.sub l 0 i) = "flags" ->
          String.sub l (i + 1) (String.length l - i - 1)
          |> String.split_on_char ' '
          |> List.filter (( <> ) "")
        | _ -> go ())
    in
    let flags = go () in
    close_in_noerr ic;
    flags

let min_window_ns = 2_000_000

(* [None] until the first [calibrate] has chosen. *)
let chosen = Atomic.make None

let lock = Mutex.create ()

let choose_and_calibrate () =
  let clocksource =
    first_line "/sys/devices/system/clocksource/clocksource0/current_clocksource"
  in
  match choose ~clocksource ~cpu_flags:(cpu_flags ()) ~x86_64:(has_tsc ()) with
  | Monotonic -> Monotonic
  | Tsc ->
    calibrate_begin ();
    let rec finish () =
      Thread.delay (float_of_int min_window_ns /. 1e9);
      match calibrate_finish min_window_ns with
      | 0 -> finish ()
      | w -> if w > 0 then Tsc else Monotonic
    in
    finish ()

let calibrate () =
  if Atomic.get chosen = None then
    Mutex.protect lock (fun () ->
        if Atomic.get chosen = None then
          Atomic.set chosen (Some (choose_and_calibrate ())))

let source () = Option.value (Atomic.get chosen) ~default:Monotonic
