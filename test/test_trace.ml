(* The E21 trace layer's own guarantees: ring wraparound accounting,
   share-nothing recording under concurrent domain writers, the
   zero-allocation disabled path, and the Chrome exporter's JSON staying
   parseable whatever ends up in a site or operation label. *)

module Probe = Sync_trace.Probe
module Profile = Sync_trace.Profile
module Chrome = Sync_trace.Chrome
module Emit = Sync_metrics.Emit

(* Every test runs against the same global probe state; keep each one
   self-contained. *)
let scrubbed f () =
  Probe.disable ();
  Probe.reset ();
  Probe.set_capacity 65536;
  Fun.protect ~finally:(fun () ->
      Probe.disable ();
      Probe.reset ();
      Probe.set_capacity 65536)
    f

let emit n =
  for i = 1 to n do
    Probe.instant Signal ~site:"test" ~arg:i
  done

(* --- ring buffer ------------------------------------------------- *)

let test_wraparound () =
  Probe.set_capacity 16;
  Probe.reset ();
  Probe.enable ();
  emit 40;
  Probe.disable ();
  let events = Probe.snapshot () in
  Alcotest.(check int) "ring retains capacity" 16 (List.length events);
  Alcotest.(check int) "total counts every record" 40 (Probe.total ());
  Alcotest.(check int) "dropped counts overwrites" 24 (Probe.dropped ());
  (* Oldest events were the ones overwritten: the survivors are the tail. *)
  let args = List.map (fun (e : Probe.event) -> e.Probe.arg) events in
  List.iter
    (fun a -> Alcotest.(check bool) "survivor is recent" true (a > 24))
    args

(* A slot keeps its site string when the event overwriting it has the
   same one: after wraparound every survivor must still name its own
   site, whether its slot's previous event had that site or another. *)
let test_sites_after_wrap () =
  let sites = [| "site-a"; "site-b"; "site-c" |] in
  Probe.set_capacity 16;
  Probe.reset ();
  Probe.enable ();
  for i = 1 to 70 do
    let site = if i > 48 then sites.(0) else sites.(i mod 3) in
    Probe.record Signal ~site ~t0:i ~dur:0 ~arg:i
  done;
  Probe.disable ();
  let events = Probe.snapshot () in
  Alcotest.(check int) "ring retains capacity" 16 (List.length events);
  List.iter
    (fun (e : Probe.event) ->
      let i = e.Probe.arg in
      let want = if i > 48 then sites.(0) else sites.(i mod 3) in
      Alcotest.(check string) "site after wraparound" want e.Probe.site)
    events

let test_no_wrap () =
  Probe.set_capacity 64;
  Probe.reset ();
  Probe.enable ();
  emit 10;
  Probe.disable ();
  Alcotest.(check int) "all retained" 10 (List.length (Probe.snapshot ()));
  Alcotest.(check int) "nothing dropped" 0 (Probe.dropped ())

let test_reset_clears () =
  Probe.enable ();
  emit 5;
  Probe.disable ();
  Probe.reset ();
  Alcotest.(check int) "snapshot empty" 0 (List.length (Probe.snapshot ()));
  Alcotest.(check int) "total zero" 0 (Probe.total ());
  Alcotest.(check int) "dropped zero" 0 (Probe.dropped ())

(* --- concurrent writers ------------------------------------------ *)

let test_domain_writers () =
  let writers = 4 and per_writer = 5000 in
  Probe.reset ();
  Probe.enable ();
  let doms =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to per_writer do
              Probe.instant Signal ~site:"dom" ~arg:((w * per_writer) + i)
            done))
  in
  List.iter Domain.join doms;
  Probe.disable ();
  let events = Probe.snapshot () in
  Alcotest.(check int) "every event retained"
    (writers * per_writer)
    (List.length events);
  Alcotest.(check int) "no drops below capacity" 0 (Probe.dropped ());
  (* Share-nothing rings: each writer's own events must survive in full
     and carry its distinct actor id. *)
  let module S = Set.Make (Int) in
  let actors =
    S.elements
      (List.fold_left
         (fun s (e : Probe.event) -> S.add e.Probe.actor s)
         S.empty events)
  in
  Alcotest.(check int) "one actor per writer" writers (List.length actors);
  let args = List.map (fun (e : Probe.event) -> e.Probe.arg) events in
  let distinct = S.cardinal (S.of_list args) in
  Alcotest.(check int) "no event lost or duplicated"
    (writers * per_writer)
    distinct

(* Two live threads whose ids collide modulo the 256 buffer-lookup slots
   take turns recording. Each must keep finding its own ring: one ring
   per thread, every event kept, and no ring allocated per turn. Small
   rings keep a regression's allocation bounded (a ring per turn would
   be ~7k words x 2000 turns). *)
let test_slot_collision () =
  let cap = 1024 and per_thread = 1000 in
  Probe.set_capacity cap;
  Probe.reset ();
  let me = Thread.id (Thread.self ()) in
  let turn = Atomic.make 0 and go = Atomic.make false in
  let take_turns side =
    for i = 1 to per_thread do
      while Atomic.get turn <> side do
        Thread.yield ()
      done;
      Probe.instant Signal ~site:"collide" ~arg:((side * per_thread) + i);
      Atomic.set turn (1 - side)
    done
  in
  (* Threads that exit at once until one's id lands in our slot. *)
  let rec colliding () =
    let t =
      Thread.create
        (fun () ->
          while not (Atomic.get go) do
            Thread.yield ()
          done;
          if Thread.id (Thread.self ()) land 255 = me land 255 then
            take_turns 1)
        ()
    in
    if Thread.id t land 255 = me land 255 then t
    else begin
      Atomic.set go true;
      Thread.join t;
      Atomic.set go false;
      colliding ()
    end
  in
  let other = colliding () in
  Probe.enable ();
  (* Both rings exist before measuring. *)
  Probe.instant Signal ~site:"collide" ~arg:0;
  let before = Gc.allocated_bytes () in
  Atomic.set go true;
  take_turns 0;
  Thread.join other;
  let words =
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  Probe.disable ();
  let events = Probe.snapshot () in
  let module S = Set.Make (Int) in
  let actors =
    List.fold_left (fun s (e : Probe.event) -> S.add e.Probe.actor s) S.empty
      events
  in
  Alcotest.(check int) "one actor per thread" 2 (S.cardinal actors);
  Alcotest.(check int) "every event kept" ((2 * per_thread) + 1)
    (List.length events);
  Alcotest.(check int) "nothing dropped" 0 (Probe.dropped ());
  (* A ring is ~7 words per slot. The other thread's first event, inside
     the window, allocates its ring; any further ring breaks the budget. *)
  Alcotest.(check bool)
    (Printf.sprintf "at most one ring allocated while alternating (%.0f words)"
       words)
    true
    (words < float_of_int (2 * 7 * cap))

(* --- disabled path ----------------------------------------------- *)

let test_disabled_no_alloc () =
  Probe.disable ();
  Probe.reset ();
  (* Warm up so any one-time setup is paid before measuring. *)
  for _ = 1 to 100 do
    let t0 = Probe.now () in
    Probe.span Hold ~site:"gc" ~since:t0 ~arg:0;
    Probe.instant Signal ~site:"gc" ~arg:0
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    let t0 = Probe.now () in
    Probe.span Hold ~site:"gc" ~since:t0 ~arg:0;
    Probe.instant Signal ~site:"gc" ~arg:0;
    if Probe.enabled () then Probe.instant Spurious ~site:"gc" ~arg:0
  done;
  let allocated = Gc.minor_words () -. before in
  (* 300k probe calls; the budget tolerates instrumentation noise but
     catches any per-call allocation (which would be >= 2 words each). *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled probes allocate nothing (got %.0f words)"
       allocated)
    true (allocated < 1000.0);
  Alcotest.(check int) "nothing recorded" 0 (Probe.total ())

(* Recording allocates nothing once the thread's ring exists: traced
   lock/unlock round trips (an Acquire and a Hold each) plus instants,
   each under one of two op labels that hit the thread's label cache. *)
let test_enabled_no_alloc () =
  let m = Sync_platform.Mutex.create () in
  let flip = ref false in
  let round () =
    flip := not !flip;
    Probe.set_op (if !flip then "gc-even" else "gc-odd");
    Sync_platform.Mutex.lock m;
    Sync_platform.Mutex.unlock m;
    Probe.instant Signal ~site:"gc" ~arg:0
  in
  Probe.reset ();
  Probe.enable ();
  for _ = 1 to 100 do
    round ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    round ()
  done;
  let allocated = Gc.minor_words () -. before in
  Probe.disable ();
  Alcotest.(check bool)
    (Printf.sprintf "enabled probes allocate nothing (got %.0f words)"
       allocated)
    true (allocated < 1000.0);
  Alcotest.(check int) "every event recorded" (3 * 100_100) (Probe.total ())

let test_disabled_now_is_zero () =
  Probe.disable ();
  Alcotest.(check int) "now() is the no-op token" 0 (Probe.now ());
  Probe.enable ();
  let t = Probe.now () in
  Probe.disable ();
  Alcotest.(check bool) "now() real when enabled" true (t > 0)

let test_span_since_zero_ignored () =
  Probe.reset ();
  Probe.enable ();
  Probe.span Hold ~site:"zero" ~since:0 ~arg:0;
  Probe.disable ();
  Alcotest.(check int) "since:0 spans are dropped" 0 (Probe.total ())

(* --- packed events ------------------------------------------------ *)

(* An event is a header word (kind, op-label index, actor) plus start,
   duration and argument: every field must come back exactly as
   recorded, at the extremes of each. *)
let all_kinds =
  Probe.[ Acquire; Hold; Wait; Op; Signal; Handoff; Abandon; Spurious; Flip ]

let test_packed_kinds () =
  let args = [| min_int; max_int; -1; 0; 1; 42; -42; 1 lsl 61; -(1 lsl 61) |] in
  Probe.reset ();
  Probe.enable ();
  List.iteri
    (fun i k ->
      Probe.set_op (Printf.sprintf "op-%d" i);
      Probe.record k ~site:(Probe.kind_to_string k) ~t0:(1000 + i)
        ~dur:(if i = 0 then max_int - 1000 else 7 * i)
        ~arg:args.(i))
    all_kinds;
  Probe.disable ();
  let events = Probe.snapshot () in
  Alcotest.(check int) "nine events" 9 (List.length events);
  let me = Thread.id (Thread.self ()) in
  List.iteri
    (fun i (e : Probe.event) ->
      let k = List.nth all_kinds i in
      let name = Probe.kind_to_string k in
      Alcotest.(check string) (name ^ ": kind") name
        (Probe.kind_to_string e.Probe.kind);
      Alcotest.(check string) (name ^ ": site") name e.Probe.site;
      Alcotest.(check string) (name ^ ": op") (Printf.sprintf "op-%d" i)
        e.Probe.op;
      Alcotest.(check int) (name ^ ": t0") (1000 + i) e.Probe.t0;
      Alcotest.(check int) (name ^ ": dur")
        (if i = 0 then max_int - 1000 else 7 * i)
        e.Probe.dur;
      Alcotest.(check int) (name ^ ": arg") args.(i) e.Probe.arg;
      Alcotest.(check int) (name ^ ": actor") me e.Probe.actor)
    events

(* Actors: the OS thread id outside deterministic runs, the virtual task
   inside them, and the two ends of the packed field. The extremes go
   through a stand-in task provider (a negative "task id" is the only
   way to reach the positive limit); Detrt's own provider is put back
   afterwards. *)
let test_packed_actors () =
  let restore () =
    Probe.set_task_provider (fun () ->
        Option.map fst (Sync_platform.Detrt.self_info ()))
  in
  Fun.protect ~finally:restore (fun () ->
      Probe.reset ();
      Probe.enable ();
      let cases =
        [ (0, -1); (41, -42); (-Probe.min_actor - 1, Probe.min_actor);
          (Probe.min_actor, Probe.max_actor) ]
      in
      let vt = ref 0 in
      Probe.set_task_provider (fun () -> Some !vt);
      Probe.virtual_run (fun () ->
          List.iteri
            (fun i (task, _) ->
              vt := task;
              Probe.record Signal ~site:"limit" ~t0:(100 + i) ~dur:0 ~arg:i)
            cases);
      restore ();
      (* Real virtual tasks: each stamps its own id into the argument. *)
      ignore
        (Sync_platform.Detrt.run ~choose:(fun _ -> 0) (fun () ->
             let emit () =
               match Sync_platform.Detrt.self_info () with
               | Some (tid, _) -> Probe.instant Signal ~site:"task" ~arg:tid
               | None -> Alcotest.fail "no task inside Detrt.run"
             in
             let a = Sync_platform.Detrt.spawn emit in
             let b = Sync_platform.Detrt.spawn emit in
             emit ();
             Sync_platform.Detrt.join a;
             Sync_platform.Detrt.join b));
      Probe.instant Signal ~site:"thread" ~arg:0;
      Probe.disable ();
      let events = Probe.snapshot () in
      let sited s =
        List.filter (fun (e : Probe.event) -> e.Probe.site = s) events
      in
      List.iter
        (fun (e : Probe.event) ->
          let task, actor = List.nth cases e.Probe.arg in
          Alcotest.(check int)
            (Printf.sprintf "task %d packs to actor %d" task actor)
            actor e.Probe.actor)
        (sited "limit");
      Alcotest.(check int) "every limit case recorded" (List.length cases)
        (List.length (sited "limit"));
      let tasks = sited "task" in
      Alcotest.(check int) "three virtual tasks" 3 (List.length tasks);
      List.iter
        (fun (e : Probe.event) ->
          Alcotest.(check int) "virtual task actor"
            (-(e.Probe.arg + 1))
            e.Probe.actor)
        tasks;
      match sited "thread" with
      | [ e ] ->
        Alcotest.(check int) "thread actor"
          (Thread.id (Thread.self ()))
          e.Probe.actor
      | _ -> Alcotest.fail "thread event missing")

let labelled i = Printf.sprintf "label-%d" i

(* Hundreds of labels, each on its own events, then the same labels
   again in reverse: interning hands back the index it gave first. *)
let test_many_labels () =
  let n = 600 in
  Probe.reset ();
  Probe.enable ();
  for i = 0 to n - 1 do
    Probe.set_op (labelled i);
    Probe.record Signal ~site:"labels" ~t0:(1 + i) ~dur:0 ~arg:i
  done;
  for i = n - 1 downto 0 do
    Probe.set_op (labelled i);
    Probe.record Signal ~site:"labels" ~t0:(1 + (2 * n) - i) ~dur:0 ~arg:i
  done;
  Probe.disable ();
  let events = Probe.snapshot () in
  Alcotest.(check int) "every event kept" (2 * n) (List.length events);
  List.iter
    (fun (e : Probe.event) ->
      Alcotest.(check string) "label of its op" (labelled e.Probe.arg)
        e.Probe.op)
    events

(* Wraparound overwrites events, never labels: an event whose label was
   interned long before the ring wrapped still reads it back, and the
   survivors of a wrapped ring all carry their own labels. *)
let test_labels_survive_wrap () =
  Probe.set_capacity 16;
  Probe.reset ();
  Probe.enable ();
  Probe.set_op "first";
  Probe.instant Signal ~site:"wrap" ~arg:(-1);
  for i = 0 to 99 do
    Probe.set_op (labelled (i mod 7));
    Probe.instant Signal ~site:"wrap" ~arg:i
  done;
  Probe.set_op "first";
  Probe.instant Signal ~site:"wrap" ~arg:(-1);
  Probe.disable ();
  let events = Probe.snapshot () in
  Alcotest.(check int) "ring retains capacity" 16 (List.length events);
  Alcotest.(check int) "dropped" 86 (Probe.dropped ());
  List.iter
    (fun (e : Probe.event) ->
      let want =
        if e.Probe.arg < 0 then "first" else labelled (e.Probe.arg mod 7)
      in
      Alcotest.(check string) "label after wraparound" want e.Probe.op)
    events

(* The label table is bounded by the header's field: one label too many
   raises, mislabels nothing (earlier events keep theirs, later ones are
   unlabelled), and [reset] empties the table so labels intern again. *)
let test_label_overflow () =
  Probe.reset ();
  Probe.enable ();
  for i = 1 to Probe.max_op_labels do
    Probe.set_op (labelled i)
  done;
  Probe.instant Signal ~site:"full" ~arg:0;
  Probe.set_op (labelled 1);
  Probe.instant Signal ~site:"full" ~arg:1;
  (match Probe.set_op "one too many" with
  | () -> Alcotest.fail "an overflowing label table must raise"
  | exception Invalid_argument _ -> ());
  Probe.instant Signal ~site:"full" ~arg:2;
  Probe.disable ();
  let ops =
    List.map (fun (e : Probe.event) -> (e.Probe.arg, e.Probe.op))
      (Probe.snapshot ())
  in
  Alcotest.(check (list (pair int string)))
    "labels around the overflow"
    [ (0, labelled Probe.max_op_labels); (1, labelled 1); (2, "") ]
    ops;
  Probe.reset ();
  Probe.enable ();
  Probe.set_op "after reset";
  Probe.instant Signal ~site:"fresh" ~arg:0;
  Probe.disable ();
  match Probe.snapshot () with
  | [ e ] ->
    Alcotest.(check string) "reset empties the table" "after reset"
      e.Probe.op
  | _ -> Alcotest.fail "expected one event after reset"

(* [set_op] caches the thread's recent labels by physical string. Hit
   or miss, every event must carry the label set before it: shared
   labels alternating, a fresh copy of a cached label, more labels than
   the cache holds, the same labels after a [reset] in another order
   (where a stale cached index would name another label), and an
   overflow right after a cached label. *)
let test_label_cache () =
  let stamp label arg =
    Probe.set_op label;
    Probe.record Signal ~site:"cache" ~t0:(1 + arg) ~dur:0 ~arg
  in
  let check what want =
    Alcotest.(check (list (pair int string)))
      what want
      (List.map
         (fun (e : Probe.event) -> (e.Probe.arg, e.Probe.op))
         (Probe.snapshot ()))
  in
  let shared = [| "alpha"; "beta" |] and many = Array.init 13 labelled in
  let script =
    List.init 10 (fun i -> shared.(i mod 2))
    @ [ String.concat "" [ "al"; "pha" ] ]
    @ List.init 52 (fun i -> many.(i mod 13))
  in
  Probe.reset ();
  Probe.enable ();
  List.iteri (fun i label -> stamp label i) script;
  check "labels through the cache" (List.mapi (fun i l -> (i, l)) script);
  let reversed = List.rev (Array.to_list many) in
  Probe.reset ();
  List.iteri (fun i label -> stamp label i) (reversed @ reversed);
  check "labels re-interned after reset"
    (List.mapi (fun i l -> (i, l)) (reversed @ reversed));
  Probe.reset ();
  stamp "alpha" 0;
  for i = 1 to Probe.max_op_labels - 2 do
    Probe.set_op (labelled i)
  done;
  stamp "beta" 1;
  (match Probe.set_op "one too many" with
  | () -> Alcotest.fail "an overflowing label table must raise"
  | exception Invalid_argument _ -> ());
  Probe.record Signal ~site:"cache" ~t0:3 ~dur:0 ~arg:2;
  stamp "beta" 3;
  Probe.disable ();
  check "overflow after a cached label"
    [ (0, "alpha"); (1, "beta"); (2, ""); (3, "beta") ]

(* An uncontended lock writes its zero-wait Acquire together with the
   Hold, at release. A release after tracing was disabled writes neither
   (the round trip is all or nothing), and leaves nothing pending for
   the next traced round trip. *)
let test_disable_while_pending () =
  let m = Sync_platform.Mutex.create ~name:"pending" () in
  Probe.reset ();
  Probe.enable ();
  Sync_platform.Mutex.lock m;
  Probe.disable ();
  Sync_platform.Mutex.unlock m;
  Alcotest.(check int) "disabled before release: nothing recorded" 0
    (Probe.total ());
  Probe.enable ();
  Sync_platform.Mutex.lock m;
  Sync_platform.Mutex.unlock m;
  Probe.disable ();
  let events = Probe.snapshot () in
  let of_kind k =
    List.filter (fun (e : Probe.event) -> e.Probe.kind = k) events
  in
  match (of_kind Probe.Acquire, of_kind Probe.Hold) with
  | [ a ], [ h ] when List.length events = 2 ->
    Alcotest.(check int) "zero-wait acquire" 0 a.Probe.dur;
    Alcotest.(check int) "hold opens where the acquire ends" a.Probe.t0
      h.Probe.t0
  | _ ->
    Alcotest.failf "expected one acquire and one hold, got %d events"
      (List.length events)

(* --- chrome export / JSON escaping ------------------------------- *)

let hostile = "we\"ird\\site\nwith\ttabs & unicode \xe2\x9c\x93 \x01ctl"

let test_chrome_escaping () =
  Probe.reset ();
  Probe.enable ();
  Probe.set_op hostile;
  Probe.instant Signal ~site:hostile ~arg:1;
  let t0 = Probe.now () in
  Probe.span Hold ~site:hostile ~since:t0 ~arg:2;
  Probe.disable ();
  let events = Probe.snapshot () in
  Alcotest.(check int) "both events recorded" 2 (List.length events);
  let json = Chrome.to_json [ ("group \"A\"\n", events) ] in
  let text = Emit.to_string json in
  (* The exporter's output must round-trip through a JSON parser with
     the hostile strings intact. *)
  let doc = Emit.parse text in
  let rec strings acc = function
    | Emit.Str s -> s :: acc
    | Emit.List xs -> List.fold_left strings acc xs
    | Emit.Obj fields ->
      List.fold_left (fun acc (_, v) -> strings acc v) acc fields
    | _ -> acc
  in
  let all = strings [] doc in
  Alcotest.(check bool) "hostile site survives round-trip" true
    (List.exists (fun s -> s = hostile) all);
  match Emit.member "traceEvents" doc with
  | Some (Emit.List evs) ->
    Alcotest.(check bool) "trace has events" true (List.length evs > 0)
  | _ -> Alcotest.fail "no traceEvents array"

let test_parse_unicode_escape () =
  (match Emit.parse "\"a\\u00e9\\u2713b\\u0041\"" with
  | Emit.Str s -> Alcotest.(check string) "decoded utf-8" "a\xc3\xa9\xe2\x9c\x93bA" s
  | _ -> Alcotest.fail "expected string");
  match Emit.parse "{\"k\\\"ey\": [1, 2.5, true, null]}" with
  | Emit.Obj [ ("k\"ey", Emit.List [ Emit.Int 1; Emit.Float f; Emit.Bool true; Emit.Null ]) ]
    ->
    Alcotest.(check (float 0.0001)) "float" 2.5 f
  | _ -> Alcotest.fail "structure mismatch"

(* --- profile aggregation ----------------------------------------- *)

let test_profile_aggregation () =
  Probe.reset ();
  Probe.enable ();
  let t0 = Probe.now () in
  Probe.span Hold ~site:"m" ~since:t0 ~arg:0;
  let t1 = Probe.now () in
  Probe.span Hold ~site:"m" ~since:t1 ~arg:0;
  let t2 = Probe.now () in
  Probe.span Wait ~site:"q" ~since:t2 ~arg:3;
  Probe.instant Signal ~site:"q" ~arg:2;
  Probe.instant Handoff ~site:"q" ~arg:1;
  Probe.instant Spurious ~site:"q" ~arg:0;
  Probe.instant Abandon ~site:"q" ~arg:77;
  Probe.disable ();
  let p = Profile.of_events ~dropped:0 (Probe.snapshot ()) in
  (match Profile.find_row p ~site:"m" ~kind:Probe.Hold with
  | Some row ->
    Alcotest.(check int) "two hold spans on m" 2 row.Profile.count
  | None -> Alcotest.fail "missing m/Hold row");
  (match Profile.find_row p ~site:"q" ~kind:Probe.Wait with
  | Some row -> Alcotest.(check int) "one wait span on q" 1 row.Profile.count
  | None -> Alcotest.fail "missing q/Wait row");
  let w = p.Profile.wake in
  Alcotest.(check int) "signals" 1 w.Profile.signals;
  Alcotest.(check int) "handoffs" 1 w.Profile.handoffs;
  Alcotest.(check int) "spurious" 1 w.Profile.spurious;
  Alcotest.(check int) "abandoned" 1 w.Profile.abandoned;
  Alcotest.(check int) "max queue depth from wait args" 3 w.Profile.max_queue

(* A successful try_lock is a zero-wait acquire: it must show up in
   profiled acquire counts (the E22 observability satellite), and the
   eventual unlock must close the hold span it opened. Covered on both
   substrate tiers, since each has its own try_lock path. *)
let test_try_lock_emits_acquire () =
  let check_tier label mk =
    Probe.reset ();
    Probe.enable ();
    let m = mk () in
    Alcotest.(check bool) (label ^ ": acquired") true
      (Sync_platform.Mutex.try_lock m);
    Sync_platform.Mutex.unlock m;
    Probe.disable ();
    let p = Profile.of_events ~dropped:0 (Probe.snapshot ()) in
    (match Profile.find_row p ~site:"mutex" ~kind:Probe.Acquire with
    | Some row ->
      Alcotest.(check int) (label ^ ": one acquire span") 1 row.Profile.count
    | None -> Alcotest.failf "%s: try_lock emitted no Acquire span" label);
    match Profile.find_row p ~site:"mutex" ~kind:Probe.Hold with
    | Some row ->
      Alcotest.(check int) (label ^ ": one hold span") 1 row.Profile.count
    | None -> Alcotest.failf "%s: unlock emitted no Hold span" label
  in
  check_tier "default" (fun () -> Sync_platform.Mutex.create ());
  check_tier "fast" (fun () ->
      Sync_platform.Fastpath.with_enabled (fun () ->
          Sync_platform.Mutex.create ()))

(* --- end to end: a traced load run ------------------------------- *)

(* A wake by construction: a getter parks on an empty monitor buffer —
   observed through the condition's waiter count, not a timing guess —
   before the put that must wake it. *)
let park_then_wake () =
  let module B = Sync_problems.Bb_mon in
  let buf =
    B.create ~capacity:1 ~put:(fun ~pid:_ _ -> ()) ~get:(fun ~pid:_ -> 0)
  in
  let getter = Thread.create (fun () -> ignore (B.get buf ~pid:1)) () in
  while Sync_monitor.Monitor.Cond.count buf.B.notempty = 0 do
    Thread.yield ()
  done;
  B.put buf ~pid:0 7;
  Thread.join getter

let test_traced_monitor_load () =
  match
    Sync_workload.Target.create ~problem:"bounded-buffer" ~mechanism:"monitor"
      ()
  with
  | Error e -> Alcotest.fail e
  | Ok instance ->
    let cfg =
      { Sync_workload.Loadgen.default_config with
        Sync_workload.Loadgen.workers = 3;
        backend = `Thread;
        duration_ms = 30;
        warmup_ms = 5 }
    in
    let report, events =
      Probe.with_tracing (fun () ->
          park_then_wake ();
          Sync_workload.Loadgen.run instance cfg)
    in
    let s = report.Sync_workload.Report.summary in
    Alcotest.(check int) "no self-check failures" 0
      s.Sync_metrics.Summary.total_failures;
    Alcotest.(check bool) "trace captured events" true (events <> []);
    let has k =
      List.exists (fun (e : Probe.event) -> e.Probe.kind = k) events
    in
    Alcotest.(check bool) "op spans present" true (has Probe.Op);
    Alcotest.(check bool) "monitor hold spans present" true
      (List.exists
         (fun (e : Probe.event) ->
           e.Probe.kind = Probe.Hold && e.Probe.site = "monitor")
         events);
    Alcotest.(check bool) "wake instants present" true
      (has Probe.Signal || has Probe.Handoff);
    (* Op labels stamped by the load engine reach the events. *)
    Alcotest.(check bool) "op labels stamped" true
      (List.exists (fun (e : Probe.event) -> e.Probe.op <> "") events)

(* The event stream each bench mechanism records per bounded-buffer op,
   uncontended: a cheaper recording path must keep every event. The
   table is per op (put and get record the same multiset). Uncontended,
   a serializer [enqueue] admits directly, so no queue event appears.

   The first number is the most distinct timestamps one op may carry:
   each is a clock read, and only the platform locks read the clock (two
   reads per uncontended round trip), so every mechanism-level span must
   borrow its start and end from the lock events inside it. *)
let bb_stream =
  [ ("semaphore", 8, [ (Probe.Acquire, "sem.lock", 4); (Hold, "sem.lock", 4) ]);
    ( "monitor",
      8,
      [ (Acquire, "monitor", 2); (Acquire, "monitor.lock", 4);
        (Hold, "monitor", 2); (Hold, "monitor.lock", 4);
        (Op, "protected.access", 1) ] );
    ( "serializer",
      10,
      [ (Acquire, "serializer.entry", 1); (Acquire, "serializer.lock", 5);
        (Hold, "serializer", 1); (Hold, "serializer.lock", 5) ] );
    ( "pathexpr",
      8,
      [ (Acquire, "sem.lock", 4); (Hold, "sem.lock", 4);
        (Op, "pathexpr.op", 1) ] );
    ( "ccr",
      4,
      [ (Acquire, "ccr.lock", 2); (Hold, "ccr.lock", 2);
        (Hold, "ccr.region", 2) ] ) ]

let is_lock_site s = Filename.extension s = ".lock"

let ends (e : Probe.event) = e.Probe.t0 + e.Probe.dur

(* Every mechanism-level span starts and ends exactly on a boundary of a
   platform-lock event of its own thread, and no lock event straddles
   either of its ends: each lies wholly inside the span or wholly
   outside, and at least one lies inside. *)
let check_on_lock_boundaries mechanism events =
  let locks, spans =
    List.partition (fun (e : Probe.event) -> is_lock_site e.Probe.site) events
  in
  List.iter
    (fun (sp : Probe.event) ->
      let what =
        Printf.sprintf "%s: %s %s" mechanism
          (Probe.kind_to_string sp.Probe.kind)
          sp.Probe.site
      in
      let mine =
        List.filter
          (fun (l : Probe.event) -> l.Probe.actor = sp.Probe.actor)
          locks
      in
      let on_boundary t =
        List.exists (fun l -> l.Probe.t0 = t || ends l = t) mine
      in
      if not (on_boundary sp.Probe.t0) then
        Alcotest.failf "%s starts off every lock boundary" what;
      if not (on_boundary (ends sp)) then
        Alcotest.failf "%s ends off every lock boundary" what;
      let inside l = l.Probe.t0 >= sp.Probe.t0 && ends l <= ends sp in
      let outside l = ends l <= sp.Probe.t0 || l.Probe.t0 >= ends sp in
      List.iter
        (fun l ->
          if not (inside l || outside l) then
            Alcotest.failf "%s straddles a %s %s event" what
              (Probe.kind_to_string l.Probe.kind)
              l.Probe.site)
        mine;
      if not (List.exists inside mine) then
        Alcotest.failf "%s encloses no lock event" what)
    spans

let distinct_instants events =
  let module S = Set.Make (Int) in
  S.cardinal
    (List.fold_left
       (fun s (e : Probe.event) -> S.add e.Probe.t0 (S.add (ends e) s))
       S.empty events)

let test_event_stream_pin () =
  let module Target = Sync_workload.Target in
  let rounds = 3 and me = Thread.id (Thread.self ()) in
  List.iter
    (fun (mechanism, instants, per_op) ->
      match Target.create ~problem:"bounded-buffer" ~mechanism () with
      | Error e -> Alcotest.fail e
      | Ok inst ->
        let rng = Sync_platform.Prng.make 1L in
        Probe.reset ();
        Probe.enable ();
        for _ = 1 to rounds do
          Array.iter
            (fun (o : Target.op) ->
              Probe.set_op o.Target.name;
              o.Target.run ~rng ~pid:0)
            inst.Target.ops
        done;
        Probe.disable ();
        inst.Target.stop ();
        let events = Probe.snapshot () in
        List.iter
          (fun (e : Probe.event) ->
            Alcotest.(check int) (mechanism ^ ": actor stamped") me
              e.Probe.actor)
          events;
        let expected =
          List.concat_map
            (fun (k, site, n) ->
              List.init (n * rounds) (fun _ -> (Probe.kind_to_string k, site)))
            per_op
          |> List.sort compare
        in
        (* Every event carries one of the ops' labels: the per-op streams
           add up to all of them. *)
        Array.iter
          (fun (o : Target.op) ->
            let op = o.Target.name in
            let of_op =
              List.filter
                (fun (e : Probe.event) -> String.equal e.Probe.op op)
                events
            in
            let got =
              List.map
                (fun (e : Probe.event) ->
                  (Probe.kind_to_string e.Probe.kind, e.Probe.site))
                of_op
            in
            Alcotest.(check (list (pair string string)))
              (Printf.sprintf "%s %s stream" mechanism op)
              expected (List.sort compare got);
            let n = distinct_instants of_op in
            if n > instants * rounds then
              Alcotest.failf
                "%s %s: %d distinct timestamps in %d ops (at most %d each)"
                mechanism op n rounds instants)
          inst.Target.ops;
        Alcotest.(check int) (mechanism ^ ": every event op-stamped")
          (Array.length inst.Target.ops * List.length expected)
          (List.length events);
        check_on_lock_boundaries mechanism events)
    bb_stream

(* Inside a deterministic run the tasks share one OS thread's ring, so a
   borrowed span must skip the other tasks' events: interleaved monitor
   entries still start and end on their own lock events. *)
let test_virtual_spans_own_events () =
  let module Monitor = Sync_monitor.Monitor in
  Probe.reset ();
  Probe.enable ();
  (* Seeded random schedules: task switches land between a mark and the
     lock events it borrows from. *)
  for seed = 1 to 20 do
    let rng = Random.State.make [| seed |] in
    ignore
      (Sync_platform.Detrt.run
         ~choose:(fun c -> Random.State.int rng (Array.length c))
         (fun () ->
           let m = Monitor.create () in
           let work () =
             for _ = 1 to 3 do
               Monitor.with_monitor m Sync_platform.Detrt.yield
             done
           in
           let a = Sync_platform.Detrt.spawn work in
           work ();
           Sync_platform.Detrt.join a))
  done;
  Probe.disable ();
  let events = Probe.snapshot () in
  let module S = Set.Make (Int) in
  let actors =
    List.fold_left (fun s (e : Probe.event) -> S.add e.Probe.actor s) S.empty
      events
  in
  Alcotest.(check int) "two virtual actors" 2 (S.cardinal actors);
  Alcotest.(check int) "a monitor hold per entry" (20 * 6)
    (List.length
       (List.filter
          (fun (e : Probe.event) ->
            e.Probe.kind = Probe.Hold && e.Probe.site = "monitor")
          events));
  check_on_lock_boundaries "detrt monitor"
    (List.filter
       (fun (e : Probe.event) ->
         is_lock_site e.Probe.site || e.Probe.site = "monitor")
       events)

let test_actor_label () =
  Alcotest.(check string) "thread label" "t12" (Probe.actor_label 12);
  Alcotest.(check string) "virtual label" "v3" (Probe.actor_label (-4))

(* --- the probe clock -------------------------------------------- *)

module Pclock = Sync_trace.Probe_clock

(* The source is a property of the box: (clocksource, CPU flags,
   architecture). Only a kernel that runs on the TSC, on a CPU whose
   TSC is invariant, on x86-64, gets it. *)
let test_clock_choice () =
  let invariant = [ "fpu"; "tsc"; "constant_tsc"; "nonstop_tsc"; "sse2" ] in
  let cases =
    [ ("tsc", invariant, true, Pclock.Tsc);
      ("tsc\n", invariant, true, Pclock.Tsc);
      ("tsc", [ "nonstop_tsc"; "tsc_known_freq"; "constant_tsc" ], true,
       Pclock.Tsc);
      ("tsc", invariant, false, Pclock.Monotonic);
      ("hpet", invariant, true, Pclock.Monotonic);
      ("kvm-clock", invariant, true, Pclock.Monotonic);
      ("acpi_pm", invariant, true, Pclock.Monotonic);
      ("arch_sys_counter", [], false, Pclock.Monotonic);
      ("tsc", [ "tsc"; "constant_tsc" ], true, Pclock.Monotonic);
      ("tsc", [ "tsc"; "nonstop_tsc" ], true, Pclock.Monotonic);
      ("tsc", [ "tsc" ], true, Pclock.Monotonic);
      ("", invariant, true, Pclock.Monotonic);
      ("", [], true, Pclock.Monotonic) ]
  in
  List.iter
    (fun (clocksource, cpu_flags, x86_64, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%S [%s] x86_64=%b" clocksource
           (String.concat " " cpu_flags) x86_64)
        (Pclock.source_name want)
        (Pclock.source_name (Pclock.choose ~clocksource ~cpu_flags ~x86_64)))
    cases

(* How far the probe clock is from CLOCK_MONOTONIC: the probe read
   against the midpoint of the tightest of 5 mono-probe-mono brackets. *)
let clock_error () =
  let best = ref (max_int, 0) in
  for _ = 1 to 5 do
    let m0 = Int64.to_int (Sync_platform.Clock.now_ns ()) in
    let p = Pclock.now_ns () in
    let m1 = Int64.to_int (Sync_platform.Clock.now_ns ()) in
    if m1 - m0 < fst !best then best := (m1 - m0, p - (m0 + ((m1 - m0) / 2)))
  done;
  snd !best

(* The calibrated clock stays on CLOCK_MONOTONIC's time line: its
   offset is small right away and still small a second later. *)
let test_clock_agrees_with_monotonic () =
  Probe.enable ();
  Probe.disable ();
  let e0 = clock_error () in
  Thread.delay 1.0;
  let e1 = clock_error () in
  Printf.printf "probe clock %s: offset from CLOCK_MONOTONIC %d ns, %d ns \
                 after 1 s (drift %d ns)\n%!"
    (Pclock.source_name (Pclock.source ())) e0 e1 (e1 - e0);
  let bound = 100_000 in
  Alcotest.(check bool)
    (Printf.sprintf "offset %d ns within %d ns" e0 bound) true (abs e0 <= bound);
  Alcotest.(check bool)
    (Printf.sprintf "offset after 1 s %d ns within %d ns" e1 bound) true
    (abs e1 <= bound)

let test_clock_monotonic_per_thread () =
  Probe.enable ();
  let prev = ref (Probe.now ()) and back = ref 0 in
  for _ = 1 to 1_000_000 do
    let t = Probe.now () in
    if t < !prev then incr back;
    prev := t
  done;
  Probe.disable ();
  Alcotest.(check int) "reads that went backwards in 1M" 0 !back

(* Two domains hand one traced Mutex back and forth 100k times, taking
   turns through an atomic: every Hold ends before the next holder's
   Acquire ends, as read by the two domains' own clocks. Blame edges
   between holders rest on this order. *)
let test_clock_cross_domain_order () =
  let per_side = 50_000 in
  Probe.set_capacity (1 lsl 17);
  Probe.reset ();
  Probe.enable ();
  let m = Sync_platform.Mutex.create ~name:"handoff" () in
  let turn = Atomic.make 0 in
  let side me () =
    for _ = 1 to per_side do
      let spins = ref 0 in
      while Atomic.get turn <> me do
        incr spins;
        if !spins land 4095 = 0 then Unix.sleepf 1e-6 else Domain.cpu_relax ()
      done;
      Sync_platform.Mutex.lock m;
      Sync_platform.Mutex.unlock m;
      Atomic.set turn (1 - me)
    done
  in
  let d = Domain.spawn (side 1) in
  side 0 ();
  Domain.join d;
  Probe.disable ();
  let events =
    List.filter (fun (e : Probe.event) -> e.Probe.site = "handoff")
      (Probe.snapshot ())
  in
  Alcotest.(check int) "nothing dropped" 0 (Probe.dropped ());
  (* This thread took the first turn. *)
  let a0 = Thread.id (Thread.self ()) in
  let a1 =
    match
      List.sort_uniq compare
        (List.map (fun (e : Probe.event) -> e.Probe.actor) events)
      |> List.filter (( <> ) a0)
    with
    | [ a ] -> a
    | others -> Alcotest.failf "%d other holders" (List.length others)
  in
  (* Per actor, in its own (time) order: where its Holds and its
     Acquires ended. *)
  let ends a k =
    List.filter_map
      (fun (e : Probe.event) ->
        if e.Probe.actor = a && e.Probe.kind = k then
          Some (e.Probe.t0 + e.Probe.dur)
        else None)
      events
    |> Array.of_list
  in
  let h0 = ends a0 Probe.Hold and h1 = ends a1 Probe.Hold in
  let q0 = ends a0 Probe.Acquire and q1 = ends a1 Probe.Acquire in
  List.iter
    (fun (n, a) -> Alcotest.(check int) n per_side (Array.length a))
    [ ("holds, first side", h0); ("holds, second side", h1);
      ("acquires, first side", q0); ("acquires, second side", q1) ];
  (* The holds alternate a0, a1, a0, ...: hold k of a0 hands to acquire
     k of a1, and hold k of a1 to acquire k + 1 of a0. *)
  let late = ref 0 and worst = ref 0 in
  let check hold_end acq_end =
    if hold_end > acq_end then begin
      incr late;
      worst := max !worst (hold_end - acq_end)
    end
  in
  for k = 0 to per_side - 1 do
    check h0.(k) q1.(k);
    if k + 1 < per_side then check h1.(k) q0.(k + 1)
  done;
  Alcotest.(check int)
    (Printf.sprintf "handoffs whose next Acquire ends before the Hold \
                     (worst by %d ns)" !worst)
    0 !late

let () =
  Alcotest.run "trace"
    [ ( "ring",
        [ Alcotest.test_case "wraparound" `Quick (scrubbed test_wraparound);
          Alcotest.test_case "no-wrap" `Quick (scrubbed test_no_wrap);
          Alcotest.test_case "sites after wraparound" `Quick
            (scrubbed test_sites_after_wrap);
          Alcotest.test_case "reset" `Quick (scrubbed test_reset_clears) ] );
      ( "concurrency",
        [ Alcotest.test_case "domain-writers" `Quick
            (scrubbed test_domain_writers);
          Alcotest.test_case "slot collision" `Quick
            (scrubbed test_slot_collision) ] );
      ( "disabled",
        [ Alcotest.test_case "zero-allocation" `Quick
            (scrubbed test_disabled_no_alloc);
          Alcotest.test_case "now-token" `Quick
            (scrubbed test_disabled_now_is_zero);
          Alcotest.test_case "since-zero" `Quick
            (scrubbed test_span_since_zero_ignored) ] );
      ( "enabled",
        [ Alcotest.test_case "zero-allocation" `Quick
            (scrubbed test_enabled_no_alloc) ] );
      ( "packing",
        [ Alcotest.test_case "nine kinds" `Quick (scrubbed test_packed_kinds);
          Alcotest.test_case "actor limits" `Quick
            (scrubbed test_packed_actors);
          Alcotest.test_case "hundreds of labels" `Quick
            (scrubbed test_many_labels);
          Alcotest.test_case "labels survive wraparound" `Quick
            (scrubbed test_labels_survive_wrap);
          Alcotest.test_case "label overflow and reset" `Quick
            (scrubbed test_label_overflow);
          Alcotest.test_case "label cache" `Quick (scrubbed test_label_cache);
          Alcotest.test_case "disabled while acquire pending" `Quick
            (scrubbed test_disable_while_pending) ] );
      ( "export",
        [ Alcotest.test_case "chrome-escaping" `Quick
            (scrubbed test_chrome_escaping);
          Alcotest.test_case "parse-unicode" `Quick
            (scrubbed test_parse_unicode_escape) ] );
      ( "profile",
        [ Alcotest.test_case "try-lock-acquire-span" `Quick
            (scrubbed test_try_lock_emits_acquire);
          Alcotest.test_case "aggregation" `Quick
            (scrubbed test_profile_aggregation) ] );
      ( "load",
        [ Alcotest.test_case "traced-monitor-run" `Quick
            (scrubbed test_traced_monitor_load);
          Alcotest.test_case "bb event-stream pin" `Quick
            (scrubbed test_event_stream_pin);
          Alcotest.test_case "virtual-task spans" `Quick
            (scrubbed test_virtual_spans_own_events);
          Alcotest.test_case "actor-labels" `Quick (scrubbed test_actor_label) ]
      );
      ( "clock",
        [ Alcotest.test_case "source choice" `Quick test_clock_choice;
          Alcotest.test_case "agrees with CLOCK_MONOTONIC" `Quick
            (scrubbed test_clock_agrees_with_monotonic);
          Alcotest.test_case "monotonic per thread" `Quick
            (scrubbed test_clock_monotonic_per_thread);
          Alcotest.test_case "cross-domain handoff order" `Quick
            (scrubbed test_clock_cross_domain_order) ] ) ]
