(* What the benchmark knows about the machine and the processes it
   measures: the box header every result document carries, CPU time and
   peak memory read from /proc, and the wall clock. *)

module Emit = Sync_metrics.Emit

let now_ns () = Int64.to_int (Sync_platform.Clock.now_ns ())

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* /proc files report length 0, so read them line by line. *)
let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in_noerr ic;
        List.rev acc
    in
    go []

let status_field ~pid field =
  let prefix = field ^ ":" in
  let n = String.length prefix in
  List.find_map
    (fun l ->
      if String.length l > n && String.sub l 0 n = prefix then
        Some (String.trim (String.sub l n (String.length l - n)))
      else None)
    (read_lines (Printf.sprintf "/proc/%s/status" pid))

(* CPUs this process may run on, like nproc(1): "0-1,4" counts 3. *)
let nproc () =
  match status_field ~pid:"self" "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
    List.fold_left
      (fun acc range ->
        match String.split_on_char '-' (String.trim range) with
        | [ a ] when a <> "" -> acc + 1
        | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
        | _ -> acc)
      0
      (String.split_on_char ',' list)

(* Peak resident set (VmHWM) of [pid] ("self" for this process), MB. *)
let peak_rss_mb ~pid =
  match status_field ~pid "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> float_of_string kb /. 1024.0
    | [] -> nan)
  | None -> nan

(* CPU time of this process across all its threads, including threads
   that have exited (getrusage), in ns. *)
let self_cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

(* First field of a schedstat file: ns spent on a CPU. *)
let schedstat_ns path =
  match read_lines path with
  | l :: _ -> (
    match String.split_on_char ' ' l with
    | ns :: _ -> int_of_string ns
    | [] -> 0)
  | [] -> 0

(* CPU time of another process, summed over its live threads, in ns. *)
let pid_cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | tasks ->
    Array.fold_left
      (fun acc t ->
        acc + schedstat_ns (Printf.sprintf "%s/%s/schedstat" dir t))
      0 tasks
  | exception Sys_error _ -> 0

(* [f ()] runs a measurement whose steady window starts [warmup_ms]
   after the call and lasts [duration_ms]; a sampler thread reads the
   counter [read] at both window edges, so work done during warmup and
   teardown is not charged to the window. *)
let sample_window ~warmup_ms ~duration_ms read f =
  let c0 = ref 0 and c1 = ref 0 in
  let sampler =
    Thread.create
      (fun () ->
        Thread.delay (float_of_int warmup_ms /. 1e3);
        c0 := read ();
        Thread.delay (float_of_int duration_ms /. 1e3);
        c1 := read ())
      ()
  in
  let r = f () in
  Thread.join sampler;
  (r, !c1 - !c0)

(* The commit, read from the checkout's own .git (never a parent
   directory's); "unknown" outside a git checkout. *)
let commit () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
    let head = trim head in
    let prefix = "ref: " in
    let n = String.length prefix in
    if String.length head <= n || String.sub head 0 n <> prefix then head
    else
      let ref_ = String.sub head n (String.length head - n) in
      match read_file (Filename.concat ".git" ref_) with
      | Some h -> trim h
      | None ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ h; r ] when r = ref_ -> Some h
            | _ -> None)
          (read_lines ".git/packed-refs")
        |> Option.value ~default:"unknown")

let header ~command ~seed ~seconds ~windows =
  Emit.Obj
    [ ("command", Emit.Str command);
      ("nproc", Emit.Int (nproc ()));
      ("recommended_domain_count", Emit.Int (Domain.recommended_domain_count ()));
      ("ocaml", Emit.Str Sys.ocaml_version);
      ("commit", Emit.Str (commit ()));
      ("seed", Emit.Int seed);
      ("seconds", Emit.Int seconds);
      ("windows", windows) ]
