(* The two additional mechanisms: conditional critical regions and
   eventcounts/sequencers — primitive-level semantics. *)

open Sync_platform

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Conditional critical regions                                        *)

module Ccr = Sync_ccr.Ccr

let test_ccr_mutual_exclusion () =
  let v = Ccr.create (ref 0) in
  let g = Testutil.Gauge.create () in
  let worker () =
    for _ = 1 to 200 do
      Ccr.region v (fun _ ->
          Testutil.Gauge.enter g;
          Thread.yield ();
          Testutil.Gauge.leave g)
    done
  in
  Testutil.run_all [ worker; worker; worker ];
  check_int "exclusive" 1 (Testutil.Gauge.max g)

let test_ccr_guard_blocks_until_true () =
  let v = Ccr.create (ref false) in
  let entered = Atomic.make false in
  let t =
    Testutil.spawn (fun () ->
        Ccr.region ~when_:(fun s -> !s) v (fun _ -> Atomic.set entered true))
  in
  Testutil.never "entered with false guard" (fun () -> Atomic.get entered);
  check_int "one blocked" 1 (Ccr.waiters v);
  Ccr.region v (fun s -> s := true);
  Sync_platform.Process.join t;
  check_bool "entered" true (Atomic.get entered)

let test_ccr_guard_sees_latest_state () =
  (* Several consumers with token guards: exactly as many pass as tokens
     granted; guards re-checked under exclusion so no over-admission. *)
  let v = Ccr.create (ref 0) in
  let consumed = Atomic.make 0 in
  let consumer () =
    Ccr.region ~when_:(fun s -> !s > 0) v (fun s ->
        decr s;
        ignore (Atomic.fetch_and_add consumed 1))
  in
  let ts = List.init 4 (fun _ -> Testutil.spawn consumer) in
  Testutil.eventually "all parked" (fun () -> Ccr.waiters v = 4);
  Ccr.region v (fun s -> s := 2);
  Testutil.eventually "two consumed" (fun () -> Atomic.get consumed = 2);
  Testutil.never "over-admission" (fun () -> Atomic.get consumed > 2);
  Ccr.region v (fun s -> s := 2);
  List.iter Sync_platform.Process.join ts;
  check_int "all consumed" 4 (Atomic.get consumed)

let test_ccr_exception_releases () =
  let v = Ccr.create () in
  (try Ccr.region v (fun () -> failwith "boom") with Failure _ -> ());
  Ccr.region v (fun () -> ())

let test_ccr_await () =
  let v = Ccr.create (ref 0) in
  let woke = Atomic.make false in
  let t =
    Testutil.spawn (fun () ->
        Ccr.await v (fun s -> !s >= 3);
        Atomic.set woke true)
  in
  Ccr.region v (fun s -> s := 2);
  Testutil.never "woke early" (fun () -> Atomic.get woke);
  Ccr.region v (fun s -> s := 3);
  Sync_platform.Process.join t;
  check_bool "woke" true (Atomic.get woke)

(* ------------------------------------------------------------------ *)
(* Eventcounts and sequencers                                          *)

module E = Eventcount.Eventcount
module Seq_ = Eventcount.Sequencer

let test_eventcount_monotone () =
  let e = E.create () in
  check_int "initial" 0 (E.read e);
  E.advance e;
  E.advance e;
  check_int "advanced" 2 (E.read e);
  E.advance_to e 5;
  check_int "jumped" 5 (E.read e);
  E.advance_to e 3;
  check_int "monotone" 5 (E.read e)

let test_eventcount_await () =
  let e = E.create () in
  let woke = Atomic.make false in
  let t =
    Testutil.spawn (fun () ->
        E.await e 3;
        Atomic.set woke true)
  in
  E.advance e;
  E.advance e;
  Testutil.never "woke below threshold" (fun () -> Atomic.get woke);
  check_int "one waiter" 1 (E.waiters e);
  E.advance e;
  Sync_platform.Process.join t;
  check_bool "woke at threshold" true (Atomic.get woke)

let test_eventcount_await_past () =
  let e = E.create ~initial:10 () in
  E.await e 5 (* already satisfied: returns immediately *)

let test_eventcount_wakes_all_due () =
  let e = E.create () in
  let woke = Atomic.make 0 in
  let ts =
    List.init 3 (fun i ->
        Testutil.spawn (fun () ->
            E.await e (i + 1);
            ignore (Atomic.fetch_and_add woke 1)))
  in
  Testutil.eventually "all parked" (fun () -> E.waiters e = 3);
  E.advance_to e 2;
  Testutil.eventually "two woke" (fun () -> Atomic.get woke = 2);
  Testutil.never "third woke early" (fun () -> Atomic.get woke > 2);
  E.advance e;
  List.iter Sync_platform.Process.join ts;
  check_int "all woke" 3 (Atomic.get woke)

let test_sequencer_unique_ordered () =
  let s = Seq_.create () in
  let got = Testutil.Tsqueue.create () in
  Testutil.run_all
    (List.init 4 (fun _ () ->
         for _ = 1 to 25 do
           Testutil.Tsqueue.push got (Seq_.ticket s)
         done));
  let tickets = List.sort compare (Testutil.Tsqueue.drain got) in
  Alcotest.(check (list int)) "dense unique" (List.init 100 Fun.id) tickets

let () =
  Alcotest.run "extensions"
    [ ( "ccr",
        [ Alcotest.test_case "mutual exclusion" `Quick
            test_ccr_mutual_exclusion;
          Alcotest.test_case "guard blocks" `Quick
            test_ccr_guard_blocks_until_true;
          Alcotest.test_case "no over-admission" `Quick
            test_ccr_guard_sees_latest_state;
          Alcotest.test_case "exception releases" `Quick
            test_ccr_exception_releases;
          Alcotest.test_case "await" `Quick test_ccr_await ] );
      ( "eventcount",
        [ Alcotest.test_case "monotone" `Quick test_eventcount_monotone;
          Alcotest.test_case "await" `Quick test_eventcount_await;
          Alcotest.test_case "await past" `Quick test_eventcount_await_past;
          Alcotest.test_case "wakes all due" `Quick
            test_eventcount_wakes_all_due;
          Alcotest.test_case "sequencer unique ordered" `Quick
            test_sequencer_unique_ordered ] ) ]
