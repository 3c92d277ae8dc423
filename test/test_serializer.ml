open Sync_serializer

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_strings = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* Possession is exclusive                                             *)

let test_possession_exclusive () =
  let s = Serializer.create () in
  let g = Testutil.Gauge.create () in
  let worker () =
    for _ = 1 to 200 do
      Serializer.with_serializer s (fun () ->
          Testutil.Gauge.enter g;
          Thread.yield ();
          Testutil.Gauge.leave g)
    done
  in
  Testutil.run_all (List.init 4 (fun _ -> worker));
  check_int "one inside" 1 (Testutil.Gauge.max g)

let test_exception_releases () =
  let s = Serializer.create () in
  (try Serializer.with_serializer s (fun () -> failwith "boom")
   with Failure _ -> ());
  Serializer.with_serializer s (fun () -> ())

(* ------------------------------------------------------------------ *)
(* Automatic signalling: guards re-evaluated at release points          *)

let test_enqueue_wakes_on_guard () =
  let s = Serializer.create () in
  let q = Serializer.Queue.create ~name:"waiters" s in
  let flag = ref false in
  let resumed = Atomic.make false in
  let waiter =
    Testutil.spawn (fun () ->
        Serializer.with_serializer s (fun () ->
            Serializer.enqueue q ~until:(fun () -> !flag);
            Atomic.set resumed true))
  in
  Testutil.eventually "parked" (fun () -> Serializer.Queue.length q = 1);
  (* Entering and leaving without touching the flag must not wake it. *)
  Serializer.with_serializer s (fun () -> ());
  Testutil.never "woke without guard" (fun () -> Atomic.get resumed);
  Serializer.with_serializer s (fun () -> flag := true);
  Sync_platform.Process.join waiter;
  check_bool "resumed" true (Atomic.get resumed);
  check_int "queue drained" 0 (Serializer.Queue.length q)

(* A resumed process may assume its guard holds (possession transferred
   atomically at the release point). *)
let test_guard_holds_on_resume () =
  let s = Serializer.create () in
  let q = Serializer.Queue.create s in
  let tokens = ref 0 in
  let violations = Atomic.make 0 in
  let consumer () =
    Serializer.with_serializer s (fun () ->
        Serializer.enqueue q ~until:(fun () -> !tokens > 0);
        if !tokens <= 0 then ignore (Atomic.fetch_and_add violations 1)
        else decr tokens)
  in
  let ts = List.init 5 (fun _ -> Testutil.spawn consumer) in
  Testutil.eventually "all parked" (fun () -> Serializer.Queue.length q = 5);
  for _ = 1 to 5 do
    Serializer.with_serializer s (fun () -> incr tokens)
  done;
  List.iter Sync_platform.Process.join ts;
  check_int "no violations" 0 (Atomic.get violations);
  check_int "tokens consumed" 0 !tokens

(* Only the queue head is eligible: a ready process behind a blocked head
   must not overtake it. *)
let test_fifo_head_blocks_queue () =
  let s = Serializer.create () in
  let q = Serializer.Queue.create s in
  let head_may_go = ref false in
  let j = Testutil.Journal.create () in
  let head =
    Testutil.spawn (fun () ->
        Serializer.with_serializer s (fun () ->
            Serializer.enqueue q ~until:(fun () -> !head_may_go);
            Testutil.Journal.add j "head"))
  in
  Testutil.eventually "head parked" (fun () -> Serializer.Queue.length q = 1);
  let second =
    Testutil.spawn (fun () ->
        Serializer.with_serializer s (fun () ->
            Serializer.enqueue q ~until:(fun () -> true);
            Testutil.Journal.add j "second"))
  in
  Testutil.eventually "second parked behind head" (fun () ->
      Serializer.Queue.length q = 2);
  (* Trigger re-evaluation: second's guard is true but it is not the head. *)
  Serializer.with_serializer s (fun () -> ());
  Testutil.never "second overtook head" (fun () ->
      Testutil.Journal.entries j <> []);
  Serializer.with_serializer s (fun () -> head_may_go := true);
  Sync_platform.Process.join head;
  Sync_platform.Process.join second;
  check_strings "fifo order" [ "head"; "second" ] (Testutil.Journal.entries j)

let test_rank_orders_queue () =
  let s = Serializer.create () in
  let q = Serializer.Queue.create s in
  let j = Testutil.Journal.create () in
  let waiter rank =
    let t =
      Testutil.spawn (fun () ->
          Serializer.with_serializer s (fun () ->
              Serializer.enqueue ~rank q ~until:(fun () -> true);
              Testutil.Journal.add j (string_of_int rank)))
    in
    t
  in
  (* Park all three while the serializer is held, so they are ordered by
     rank when the holder releases. *)
  let gate = ref false in
  let holder =
    Testutil.spawn (fun () ->
        Serializer.with_serializer s (fun () ->
            Serializer.enqueue q ~until:(fun () -> !gate)))
  in
  Testutil.eventually "holder parked" (fun () ->
      Serializer.Queue.length q = 1);
  let t1 = waiter 30 in
  Testutil.eventually "parked" (fun () -> Serializer.Queue.length q = 2);
  let t2 = waiter 10 in
  Testutil.eventually "parked" (fun () -> Serializer.Queue.length q = 3);
  let t3 = waiter 20 in
  Testutil.eventually "parked" (fun () -> Serializer.Queue.length q = 4);
  Serializer.with_serializer s (fun () -> gate := true);
  List.iter Sync_platform.Process.join [ holder; t1; t2; t3 ];
  (* rank 0 (the holder's wait) resumes first but logs nothing. *)
  check_strings "rank order" [ "10"; "20"; "30" ] (Testutil.Journal.entries j)

(* Direct admission (an [enqueue] whose guard already holds keeps
   possession) must pick exactly whom a release would: an older eligible
   head on another queue goes first. *)
let test_direct_never_overtakes () =
  let s = Serializer.create () in
  let qa = Serializer.Queue.create ~name:"a" s in
  let qb = Serializer.Queue.create ~name:"b" s in
  let go = ref false in
  let j = Testutil.Journal.create () in
  let older =
    Testutil.spawn (fun () ->
        Serializer.with_serializer s (fun () ->
            Serializer.enqueue qa ~until:(fun () -> !go);
            Testutil.Journal.add j "older"))
  in
  Testutil.eventually "older parked" (fun () -> Serializer.Queue.length qa = 1);
  Serializer.with_serializer s (fun () ->
      go := true;
      Serializer.enqueue qb ~until:(fun () -> true);
      Testutil.Journal.add j "younger");
  Sync_platform.Process.join older;
  check_strings "older eligible head first" [ "older"; "younger" ]
    (Testutil.Journal.entries j);
  (* An ineligible older head does not stop direct admission. *)
  go := false;
  let parked =
    Testutil.spawn (fun () ->
        Serializer.with_serializer s (fun () ->
            Serializer.enqueue qa ~until:(fun () -> !go)))
  in
  Testutil.eventually "older parked again" (fun () ->
      Serializer.Queue.length qa = 1);
  Serializer.with_serializer s (fun () ->
      Serializer.enqueue qb ~until:(fun () -> true);
      check_int "older still parked" 1 (Serializer.Queue.guard_length qa);
      go := true);
  Sync_platform.Process.join parked

let test_direct_guard_raises () =
  let s = Serializer.create () in
  let q = Serializer.Queue.create s in
  let held = ref false in
  (match
     Serializer.with_serializer s (fun () ->
         match Serializer.enqueue q ~until:(fun () -> failwith "guard") with
         | () -> ()
         | exception e ->
           held := Serializer.inside s;
           raise e)
   with
  | () -> Alcotest.fail "guard exception swallowed"
  | exception Failure m -> Alcotest.(check string) "guard's exception" "guard" m);
  check_bool "raised holding possession" true !held;
  check_int "nothing parked" 0 (Serializer.Queue.length q);
  let admitted = Atomic.make false in
  let next =
    Testutil.spawn (fun () ->
        Serializer.with_serializer s (fun () -> Atomic.set admitted true))
  in
  Testutil.eventually "next with_serializer admitted" (fun () ->
      Atomic.get admitted);
  Sync_platform.Process.join next

(* A raising guard fails its own [enqueue] holding possession, and the
   [with_serializer] bracket releases it once: with entrants queued,
   releasing twice would let two of them in together. Both the direct
   path and the parked (poisoned) path. *)
let test_raising_guard_releases_once () =
  let s = Serializer.create () in
  let q = Serializer.Queue.create s in
  let g = Testutil.Gauge.create () in
  let entrant () =
    Serializer.with_serializer s (fun () ->
        Testutil.Gauge.enter g;
        Thread.delay 0.02;
        Testutil.Gauge.leave g)
  in
  let entrants () =
    let ts = List.init 2 (fun _ -> Testutil.spawn entrant) in
    Testutil.never "entrant admitted while held" (fun () ->
        Testutil.Gauge.current g > 0);
    ts
  in
  let expect_guard_failure f =
    match f () with
    | () -> Alcotest.fail "guard exception swallowed"
    | exception Failure _ -> ()
  in
  (* Direct path: the holder's own guard raises. *)
  let ts = ref [] in
  expect_guard_failure (fun () ->
      Serializer.with_serializer s (fun () ->
          ts := entrants ();
          Serializer.enqueue q ~until:(fun () -> failwith "guard")));
  List.iter Sync_platform.Process.join !ts;
  check_int "direct: one inside at a time" 1 (Testutil.Gauge.max g);
  (* Parked path: the guard raises when another process releases. *)
  let armed = ref false in
  let victim =
    Testutil.spawn (fun () ->
        expect_guard_failure (fun () ->
            Serializer.with_serializer s (fun () ->
                Serializer.enqueue q ~until:(fun () ->
                    if !armed then failwith "guard" else false))))
  in
  Testutil.eventually "victim parked" (fun () -> Serializer.Queue.length q = 1);
  Serializer.with_serializer s (fun () ->
      ts := entrants ();
      armed := true);
  List.iter Sync_platform.Process.join (victim :: !ts);
  check_int "poisoned: one inside at a time" 1 (Testutil.Gauge.max g)

(* ------------------------------------------------------------------ *)
(* Crowds                                                              *)

let test_crowd_allows_concurrency () =
  let s = Serializer.create () in
  let crowd = Serializer.Crowd.create ~name:"readers" s in
  let g = Testutil.Gauge.create () in
  let b = Sync_platform.Latch.Barrier.create 3 in
  let reader () =
    Serializer.with_serializer s (fun () ->
        Serializer.join_crowd crowd ~body:(fun () ->
            Testutil.Gauge.enter g;
            (* Hold everyone in the crowd simultaneously. *)
            Sync_platform.Latch.Barrier.await b;
            Testutil.Gauge.leave g))
  in
  Testutil.run_all (List.init 3 (fun _ -> reader));
  check_int "three in crowd at once" 3 (Testutil.Gauge.max g);
  check_int "crowd empty after" 0 (Serializer.Crowd.count crowd)

let test_crowd_guard_excludes () =
  let s = Serializer.create () in
  let readers = Serializer.Crowd.create ~name:"readers" s in
  let q = Serializer.Queue.create s in
  let in_crowd = Atomic.make false in
  let release_reader = Sync_platform.Latch.create 1 in
  let reader =
    Testutil.spawn (fun () ->
        Serializer.with_serializer s (fun () ->
            Serializer.join_crowd readers ~body:(fun () ->
                Atomic.set in_crowd true;
                Sync_platform.Latch.wait release_reader)))
  in
  Testutil.eventually "reader in crowd" (fun () -> Atomic.get in_crowd);
  let writer_done = Atomic.make false in
  let writer =
    Testutil.spawn (fun () ->
        Serializer.with_serializer s (fun () ->
            Serializer.enqueue q ~until:(fun () ->
                Serializer.Crowd.is_empty readers);
            Atomic.set writer_done true))
  in
  Testutil.never "writer entered while crowd occupied" (fun () ->
      Atomic.get writer_done);
  Sync_platform.Latch.arrive release_reader;
  Sync_platform.Process.join reader;
  Sync_platform.Process.join writer;
  check_bool "writer eventually ran" true (Atomic.get writer_done)

let test_join_crowd_exception_leaves () =
  let s = Serializer.create () in
  let crowd = Serializer.Crowd.create s in
  (try
     Serializer.with_serializer s (fun () ->
         Serializer.join_crowd crowd ~body:(fun () -> failwith "body"))
   with Failure _ -> ());
  check_int "crowd left" 0 (Serializer.Crowd.count crowd);
  Serializer.with_serializer s (fun () -> ())

let () =
  Alcotest.run "serializer"
    [ ( "possession",
        [ Alcotest.test_case "exclusive" `Quick test_possession_exclusive;
          Alcotest.test_case "exception releases" `Quick
            test_exception_releases ] );
      ( "queues",
        [ Alcotest.test_case "guard wakes" `Quick test_enqueue_wakes_on_guard;
          Alcotest.test_case "guard holds on resume" `Quick
            test_guard_holds_on_resume;
          Alcotest.test_case "head blocks queue" `Quick
            test_fifo_head_blocks_queue;
          Alcotest.test_case "rank orders queue" `Quick test_rank_orders_queue
        ] );
      ( "direct admission",
        [ Alcotest.test_case "never overtakes an eligible head" `Quick
            test_direct_never_overtakes;
          Alcotest.test_case "raising guard re-raises" `Quick
            test_direct_guard_raises;
          Alcotest.test_case "raising guard releases once" `Quick
            test_raising_guard_releases_once ] );
      ( "crowds",
        [ Alcotest.test_case "allows concurrency" `Quick
            test_crowd_allows_concurrency;
          Alcotest.test_case "guard excludes" `Quick test_crowd_guard_excludes;
          Alcotest.test_case "exception leaves crowd" `Quick
            test_join_crowd_exception_leaves ] ) ]
