(* The measurement layer under the measurement layer: histograms,
   recorders, summaries and JSON emission (lib/metrics), plus the
   workload engine's target catalog and a thread-backed load smoke.
   Property tests pin the invariants the E20 numbers rest on: quantiles
   are monotone and within the documented relative-error bound, merge is
   lossless and commutative, and no recorded operation is ever dropped
   on the way to a summary. *)

open Sync_metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* -- histogram units ---------------------------------------------- *)

let test_empty () =
  let h = Histogram.create () in
  check_int "count" 0 (Histogram.count h);
  check_int "q0.5" 0 (Histogram.quantile h 0.5);
  check_int "min" 0 (Histogram.min_value h);
  check_int "max" 0 (Histogram.max_value h);
  Alcotest.(check (float 0.)) "mean" 0. (Histogram.mean h)

let test_single_value () =
  let h = Histogram.create () in
  Histogram.record h 12345;
  check_int "count" 1 (Histogram.count h);
  List.iter
    (fun q -> check_int (Printf.sprintf "q%.3f" q) 12345 (Histogram.quantile h q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  check_int "min" 12345 (Histogram.min_value h);
  check_int "max" 12345 (Histogram.max_value h);
  Alcotest.(check (float 0.)) "mean" 12345. (Histogram.mean h)

let test_small_values_exact () =
  (* below 2^sub_bits the buckets are unit-width: quantiles are exact *)
  let h = Histogram.create () in
  for v = 0 to 31 do Histogram.record h v done;
  check_int "median of 0..31" 15 (Histogram.quantile h 0.5);
  check_int "q1.0" 31 (Histogram.quantile h 1.0);
  check_int "q0" 0 (Histogram.quantile h 0.0);
  Alcotest.(check (float 0.)) "mean" 15.5 (Histogram.mean h)

let test_known_distribution () =
  (* 1..10_000: true quantile q is q*10_000; bucketed answer must be
     within the documented 2^-sub_bits ≈ 3.2% relative error *)
  let h = Histogram.create () in
  for v = 1 to 10_000 do Histogram.record h v done;
  List.iter
    (fun q ->
      let true_q = q *. 10_000. in
      let got = float_of_int (Histogram.quantile h q) in
      let rel = Float.abs (got -. true_q) /. true_q in
      if rel > 0.04 then
        Alcotest.failf "q%.2f: got %.0f, want ~%.0f (rel err %.3f)" q got
          true_q rel)
    [ 0.50; 0.90; 0.95; 0.99 ];
  check_int "count" 10_000 (Histogram.count h);
  check_int "exact max" 10_000 (Histogram.max_value h);
  check_int "exact min" 1 (Histogram.min_value h);
  Alcotest.(check (float 0.)) "mean" 5000.5 (Histogram.mean h)

let test_negative_clamps () =
  let h = Histogram.create () in
  Histogram.record h (-7);
  check_int "count" 1 (Histogram.count h);
  check_int "clamped to 0" 0 (Histogram.quantile h 1.0);
  Alcotest.(check (float 0.)) "mean of the clamped value" 0. (Histogram.mean h)

let test_buckets_conserve () =
  let h = Histogram.create () in
  let values = [ 0; 1; 31; 32; 33; 1000; 1_000_000; max_int ] in
  List.iter (fun v -> Histogram.record h v) values;
  Alcotest.(check (float 0.)) "mean as a float sum"
    (List.fold_left (fun acc v -> acc +. float_of_int v) 0. values /. 8.)
    (Histogram.mean h);
  let total =
    List.fold_left (fun acc (_, _, c) -> acc + c) 0
      (Histogram.nonempty_buckets h)
  in
  check_int "bucket counts sum to count" (Histogram.count h) total;
  List.iter
    (fun (lo, hi, _) -> check_bool "lo <= hi" true (lo <= hi))
    (Histogram.nonempty_buckets h)

(* Every Loadgen op records into a histogram: recording must not
   allocate (the running sum is a float, kept unboxed), and a merge or a
   copy must not share that sum with its source. *)
let test_record_no_alloc () =
  let h = Histogram.create () in
  Histogram.record h 1;
  let before = Gc.minor_words () in
  for v = 1 to 10_000 do
    Histogram.record h (v * 997)
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "10k records allocate no minor words" 0.
    allocated;
  let mean = Histogram.mean h in
  Alcotest.(check (float 0.)) "mean"
    ((1. +. (997. *. 10_000. *. 10_001. /. 2.)) /. 10_001.)
    mean;
  let m = Histogram.merge h h in
  Alcotest.(check (float 0.)) "merged mean" mean (Histogram.mean m);
  Histogram.record m max_int;
  Histogram.record (Histogram.copy h) max_int;
  Alcotest.(check (float 0.)) "merge and copy leave the source's mean" mean
    (Histogram.mean h)

(* -- histogram properties ----------------------------------------- *)

let value_gen =
  (* span the interesting ranges: sub-linear, mid, and huge *)
  QCheck.Gen.(
    oneof
      [ int_range 0 64; int_range 0 100_000;
        map abs (int_range 0 max_int) ])

let values_arb =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(list_size (int_range 1 500) value_gen)

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.record h) values;
  h

let rec nondecreasing = function
  | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
  | _ -> true

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:200 values_arb
    (fun values ->
      let h = hist_of values in
      let qs = [ 0.0; 0.1; 0.25; 0.5; 0.9; 0.95; 0.99; 0.999; 1.0 ] in
      nondecreasing (List.map (Histogram.quantile h) qs))

let prop_quantile_bounds =
  QCheck.Test.make ~name:"quantiles stay within recorded min/max" ~count:200
    values_arb (fun values ->
      let h = hist_of values in
      List.for_all
        (fun q ->
          let v = Histogram.quantile h q in
          v >= Histogram.min_value h && v <= Histogram.max_value h)
        [ 0.0; 0.5; 0.99; 1.0 ])

let pair_arb = QCheck.pair values_arb values_arb

let prop_merge_commutes =
  QCheck.Test.make ~name:"merge commutative + lossless" ~count:200 pair_arb
    (fun (xs, ys) ->
      let ab = Histogram.merge (hist_of xs) (hist_of ys) in
      let ba = Histogram.merge (hist_of ys) (hist_of xs) in
      let both = hist_of (xs @ ys) in
      Histogram.count ab = Histogram.count ba
      && Histogram.count ab = List.length xs + List.length ys
      && Histogram.nonempty_buckets ab = Histogram.nonempty_buckets ba
      && Histogram.nonempty_buckets ab = Histogram.nonempty_buckets both
      && Histogram.min_value ab = Histogram.min_value both
      && Histogram.max_value ab = Histogram.max_value both)

let prop_merge_counts_conserved =
  QCheck.Test.make ~name:"merge conserves counts and sums" ~count:200 pair_arb
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      let m = Histogram.merge a b in
      let n = Histogram.count m in
      n = Histogram.count a + Histogram.count b
      && Float.abs
           ((Histogram.mean m *. float_of_int n)
           -. (Histogram.mean a *. float_of_int (Histogram.count a))
           -. (Histogram.mean b *. float_of_int (Histogram.count b)))
         < 1e-3 *. Float.max 1. (Histogram.mean m *. float_of_int n))

(* -- recorder + summary ------------------------------------------- *)

let test_recorder_merge () =
  let ops = [| "put"; "get" |] in
  let mk records fails =
    let r = Recorder.create ~ops () in
    List.iter (fun (op, ns) -> Recorder.record r ~op ~ns) records;
    List.iter (fun op -> Recorder.record_failure r ~op) fails;
    r
  in
  let r1 = mk [ (0, 100); (0, 200); (1, 50) ] [ 1 ] in
  let r2 = mk [ (1, 75); (0, 300) ] [ 0; 1 ] in
  let m = Recorder.merge [ r1; r2 ] in
  check_int "ops" 5 (Recorder.ops_recorded m);
  check_int "failures" 3 (Recorder.failures m);
  check_int "put count" 3 (Recorder.op_count m ~op:0);
  check_int "get count" 2 (Recorder.op_count m ~op:1);
  check_int "put failures" 1 (Recorder.op_failures m ~op:0);
  check_int "get failures" 2 (Recorder.op_failures m ~op:1);
  (* inputs untouched *)
  check_int "r1 untouched" 3 (Recorder.ops_recorded r1)

let test_recorder_merge_mismatch () =
  let a = Recorder.create ~ops:[| "x" |] () in
  let b = Recorder.create ~ops:[| "y" |] () in
  Alcotest.check_raises "mismatched ops"
    (Invalid_argument "Recorder.merge: ops mismatch") (fun () ->
      ignore (Recorder.merge [ a; b ]))

let test_summary_conserves () =
  let r = Recorder.create ~ops:[| "a"; "b" |] () in
  for i = 1 to 100 do Recorder.record r ~op:(i mod 2) ~ns:(i * 10) done;
  Recorder.record_failure r ~op:0;
  let s = Summary.of_recorder ~elapsed_ns:1_000_000_000L r in
  check_int "total_ops" 100 s.Summary.total_ops;
  check_int "total_failures" 1 s.Summary.total_failures;
  check_int "per-op counts sum" 100
    (List.fold_left (fun acc o -> acc + o.Summary.count) 0 s.Summary.per_op);
  (* 100 ops over exactly 1s *)
  Alcotest.(check (float 0.01)) "throughput" 100. s.Summary.throughput_per_s;
  List.iter
    (fun o ->
      check_bool "ladder monotone" true
        (o.Summary.min_ns <= o.Summary.p50_ns
        && o.Summary.p50_ns <= o.Summary.p95_ns
        && o.Summary.p95_ns <= o.Summary.p99_ns
        && o.Summary.p99_ns <= o.Summary.p999_ns
        && o.Summary.p999_ns <= o.Summary.max_ns))
    s.Summary.per_op

(* -- multi-domain recorder contention ----------------------------- *)

let test_parallel_recorders () =
  (* the share-nothing design under real parallelism: one recorder per
     domain, no synchronization, merged counts must be exact *)
  let domains = 4 and per_domain = 25_000 in
  let ops = [| "op" |] in
  let recorders = Array.init domains (fun _ -> Recorder.create ~ops ()) in
  Sync_platform.Process.run_all ~backend:`Domain
    (List.init domains (fun d () ->
         let r = recorders.(d) in
         for i = 1 to per_domain do
           Recorder.record r ~op:0 ~ns:(i land 1023)
         done));
  let m = Recorder.merge (Array.to_list recorders) in
  check_int "no recordings lost" (domains * per_domain)
    (Recorder.ops_recorded m);
  check_int "histogram agrees" (domains * per_domain)
    (Histogram.count (Recorder.hist m ~op:0))

(* -- emission ------------------------------------------------------ *)

let test_emit_json () =
  let doc =
    Emit.(Obj
      [ ("s", Str "a\"b\\c\nd");
        ("i", Int (-3));
        ("f", Float 1.5);
        ("nan", Float Float.nan);
        ("inf", Float Float.infinity);
        ("l", List [ Bool true; Null ]) ])
  in
  check_string "compact json"
    "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"f\":1.5,\"nan\":null,\"inf\":null,\"l\":[true,null]}"
    (Emit.to_string ~pretty:false doc)

let test_emit_csv () =
  check_string "quoting" "plain,\"has,comma\",\"has\"\"quote\""
    (Emit.csv_line [ "plain"; "has,comma"; "has\"quote" ])

(* -- workload engine ----------------------------------------------- *)

let test_registry_coverage () =
  (* every load target must be a registered, verified solution *)
  match Sync_eval.Cell.coverage_errors () with
  | [] -> ()
  | errs -> Alcotest.failf "%s" (String.concat "; " errs)

(* SYNC_LOAD_MS: unset or empty is the default, a positive integer is
   the window, anything else is refused by name rather than ignored.
   Set values go through the environment; "unset" cannot, since the
   stdlib has no unsetenv, and empty is how a caller restores it. *)
let test_load_ms_env () =
  let module L = Sync_workload.Loadgen in
  let saved = Option.value (Sys.getenv_opt "SYNC_LOAD_MS") ~default:"" in
  let read = function
    | None -> (try Ok (L.duration_of ~default:150 None) with Invalid_argument m -> Error m)
    | Some v -> (
      Unix.putenv "SYNC_LOAD_MS" v;
      try Ok (L.duration_from_env ~default:150) with Invalid_argument m -> Error m)
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SYNC_LOAD_MS" saved)
    (fun () ->
      List.iter
        (fun (value, expected) ->
          let label = Option.value value ~default:"unset" in
          match (read value, expected) with
          | Ok ms, Some e -> Alcotest.(check int) label e ms
          | Error m, None ->
            check_bool (label ^ " names the variable") true
              (Astring.String.is_infix ~affix:"SYNC_LOAD_MS" m)
          | Ok ms, None -> Alcotest.failf "%s: accepted as %d ms" label ms
          | Error m, Some _ -> Alcotest.failf "%s: refused: %s" label m)
        [ (None, Some 150); (Some "", Some 150); (Some "200", Some 200);
          (Some "0", None); (Some "-5", None); (Some "abc", None) ])

(* The axis grids warm up for 50 ms, or for the steady window when
   SYNC_LOAD_MS makes it shorter: a 1 ms quick run spends 1 ms warming
   up, not 50. The scaling axis's spec reads the variable as the grid's
   config and the A/B row's do. *)
let test_warmup_within_window () =
  let saved = Option.value (Sys.getenv_opt "SYNC_LOAD_MS") ~default:"" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SYNC_LOAD_MS" saved)
    (fun () ->
      List.iter
        (fun (value, expected) ->
          Unix.putenv "SYNC_LOAD_MS" value;
          let spec = Sync_eval.Scaling_axis.spec ~full:false in
          Alcotest.(check int)
            (if value = "" then "unset" else value)
            expected spec.Sync_eval.Scaling_axis.warmup_ms)
        [ ("", 50); ("1", 1); ("20", 20); ("50", 50); ("200", 50) ])

let run_smoke mode =
  match
    Sync_workload.Target.create ~problem:"bounded-buffer"
      ~mechanism:"semaphore" ()
  with
  | Error e -> Alcotest.failf "target: %s" e
  | Ok instance ->
    let cfg =
      { Sync_workload.Loadgen.workers = 2; backend = `Thread;
        duration_ms = 60; warmup_ms = 20; mode; seed = 7; think_us = 0 }
    in
    let report = Sync_workload.Loadgen.run instance cfg in
    let s = report.Sync_workload.Report.summary in
    check_bool "made progress" true (s.Summary.total_ops > 0);
    check_int "no failures" 0 s.Summary.total_failures;
    check_bool "throughput positive" true (s.Summary.throughput_per_s > 0.);
    (* the JSON document round-trips through the emitter *)
    let json =
      Emit.to_string (Sync_workload.Report.to_json report)
    in
    check_bool "json mentions throughput" true
      (Astring.String.is_infix ~affix:"throughput_per_s" json)

(* A closed-loop turn of the op loop reads the clock twice, checks the
   phase and records a latency: none of it may allocate. The op notes
   its domain's minor-word count, so consecutive notes bracket one
   turn of the loop around it. *)
let test_loadgen_op_no_alloc () =
  match
    Sync_workload.Target.create ~problem:"bounded-buffer"
      ~mechanism:"semaphore" ()
  with
  | Error e -> Alcotest.failf "target: %s" e
  | Ok base ->
    let n = 20_000 in
    let words = Array.make n 0. and calls = ref 0 in
    let note ~rng:_ ~pid:_ =
      let c = !calls in
      if c < n then begin
        words.(c) <- Gc.minor_words ();
        calls := c + 1
      end
    in
    let instance =
      { base with
        Sync_workload.Target.ops = [| { Sync_workload.Target.name = "note"; run = note } |];
        selection = Sync_workload.Target.Cycle }
    in
    let cfg =
      { Sync_workload.Loadgen.workers = 1; backend = `Domain;
        duration_ms = 50; warmup_ms = 0; mode = Sync_workload.Loadgen.Closed;
        seed = 7; think_us = 0 }
    in
    ignore (Sync_workload.Loadgen.run instance cfg);
    check_int "ops noted" n !calls;
    let turns = n - 1 - 100 in
    Alcotest.(check (float 0.))
      (Printf.sprintf "minor words over %d turns of the op loop" turns)
      0. (words.(n - 1) -. words.(100))

let test_loadgen_closed () = run_smoke Sync_workload.Loadgen.Closed

let test_loadgen_open () =
  run_smoke
    (Sync_workload.Loadgen.Open_loop
       { rate_per_s = 5_000.; arrival = Sync_workload.Loadgen.Poisson })

let test_loadgen_rejects () =
  match
    Sync_workload.Target.create ~problem:"bounded-buffer"
      ~mechanism:"semaphore" ()
  with
  | Error e -> Alcotest.failf "target: %s" e
  | Ok instance ->
    let bad =
      { Sync_workload.Loadgen.default_config with workers = 0 }
    in
    (match Sync_workload.Loadgen.run instance bad with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "worker count 0 accepted");
    instance.Sync_workload.Target.stop ()

let test_target_unknown () =
  (match Sync_workload.Target.create ~problem:"nope" ~mechanism:"monitor" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown problem accepted");
  match
    Sync_workload.Target.create ~problem:"bounded-buffer" ~mechanism:"nope" ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown mechanism accepted"

let () =
  Alcotest.run "metrics"
    [ ( "histogram",
        [ Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single value" `Quick test_single_value;
          Alcotest.test_case "small values exact" `Quick
            test_small_values_exact;
          Alcotest.test_case "known distribution" `Quick
            test_known_distribution;
          Alcotest.test_case "negative clamps" `Quick test_negative_clamps;
          Alcotest.test_case "buckets conserve" `Quick test_buckets_conserve;
          Alcotest.test_case "record allocates nothing" `Quick
            test_record_no_alloc ] );
      ( "histogram-properties",
        [ Testutil.qcheck_case prop_quantile_monotone;
          Testutil.qcheck_case prop_quantile_bounds;
          Testutil.qcheck_case prop_merge_commutes;
          Testutil.qcheck_case prop_merge_counts_conserved ] );
      ( "recorder",
        [ Alcotest.test_case "merge" `Quick test_recorder_merge;
          Alcotest.test_case "merge mismatch" `Quick
            test_recorder_merge_mismatch;
          Alcotest.test_case "summary conserves" `Quick test_summary_conserves;
          Alcotest.test_case "parallel recorders (domains)" `Quick
            test_parallel_recorders ] );
      ( "emit",
        [ Alcotest.test_case "json" `Quick test_emit_json;
          Alcotest.test_case "csv" `Quick test_emit_csv ] );
      ( "workload",
        [ Alcotest.test_case "registry coverage" `Quick test_registry_coverage;
          Alcotest.test_case "closed-loop smoke" `Quick test_loadgen_closed;
          Alcotest.test_case "op loop allocates nothing" `Quick
            test_loadgen_op_no_alloc;
          Alcotest.test_case "open-loop smoke" `Quick test_loadgen_open;
          Alcotest.test_case "rejects bad config" `Quick test_loadgen_rejects;
          Alcotest.test_case "SYNC_LOAD_MS values" `Quick test_load_ms_env;
          Alcotest.test_case "warmup within the window" `Quick
            test_warmup_within_window;
          Alcotest.test_case "unknown pair" `Quick test_target_unknown ] ) ]
