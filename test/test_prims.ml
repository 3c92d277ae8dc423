(* E25 primitive-class substrate tests: LL/SC emulation semantics
   (including the ABA tag-wraparound edge), bakery bounded timestamps
   and ordering, semaphore conservation storms for every restricted
   class through the [Prims] factories, the 64-thread slot bound, the
   tier labels, the pinned typed rejection of strong semaphores on the
   RW class, and the creation-scoped backoff spin-vs-yield decision. *)

open Sync_prims
module Platform = Sync_platform
module L = Llsc.Make (Regs.Shared)
module B = Bakery.Make (Regs.Shared)

(* ---------------------------------------------------------------- *)
(* LL/SC emulation                                                  *)
(* ---------------------------------------------------------------- *)

(* A stale reservation's SC must fail when any successful SC
   intervened — except the ABA escape: after exactly a multiple of
   [2^tag_bits] intervening successful SCs, if the value field also
   matches the reservation, the packed word has cycled back and the
   stale SC succeeds. With [tag_bits = 3] the period is 8. *)
let prop_sc_stale_iff =
  QCheck.Test.make ~count:200 ~name:"llsc: stale sc fails iff tag or value moved"
    QCheck.(triple (int_bound 32) (int_bound 100) bool)
    (fun (n, v0, restore) ->
      let c = L.create ~tag_bits:3 v0 in
      let r, seen = L.ll c in
      assert (seen = v0);
      (* n intervening successful SCs; the last one either restores the
         reserved value or lands on a different one. *)
      for k = 1 to n do
        let v = if k = n && not restore then v0 + 1 else if k mod 2 = 0 then v0 else v0 + 1 in
        L.store c v
      done;
      let final = L.peek c in
      let expect = n mod 8 = 0 && final = v0 in
      let got = L.sc c r (v0 + 7) in
      if got then L.store c v0;
      got = expect)

(* Pin the wraparound edge deterministically: with [tag_bits = 2] the
   tag period is 4, so a same-value stale SC fails after 1..3
   intervening SCs and succeeds after exactly 4. *)
let test_aba_wraparound () =
  for n = 1 to 8 do
    let c = L.create ~tag_bits:2 5 in
    Alcotest.(check int) "tag_bits" 2 (L.tag_bits c);
    let r, _ = L.ll c in
    for _ = 1 to n do
      (* each pair of stores is two successful SCs ending back at 5 *)
      L.store c 6;
      L.store c 5
    done;
    (* 2n intervening SCs, value restored: ABA escape iff 2n mod 4 = 0 *)
    let expect = 2 * n mod 4 = 0 in
    Alcotest.(check bool)
      (Printf.sprintf "stale sc after %d same-value SCs" (2 * n))
      expect
      (L.sc c r 9)
  done

(* Single-threaded model check: a fresh ll/sc pair always succeeds and
   the cell tracks a plain int reference through a random op mix. *)
let prop_llsc_model =
  let op =
    QCheck.(
      oneof
        [ map (fun v -> `Store (v land 0xFF)) (int_bound 255);
          map (fun v -> `Sc (v land 0xFF)) (int_bound 255);
          always `Peek ])
  in
  QCheck.Test.make ~count:100 ~name:"llsc: single-thread fresh sc never fails"
    QCheck.(list_of_size Gen.(int_range 1 40) op)
    (fun ops ->
      let c = L.create ~tag_bits:4 0 in
      let model = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Store v ->
              L.store c v;
              model := v;
              true
          | `Sc v ->
              let r, seen = L.ll c in
              let ok = seen = !model && L.sc c r v in
              if ok then model := v;
              ok
          | `Peek -> L.peek c = !model)
        ops)

let test_llsc_lock_sem () =
  let l = L.Lock.create () in
  L.Lock.lock l;
  Alcotest.(check bool) "locked: try fails" false (L.Lock.try_lock l);
  L.Lock.unlock l;
  Alcotest.(check bool) "free: try succeeds" true (L.Lock.try_lock l);
  L.Lock.unlock l;
  let s = L.Sem.create 2 in
  Alcotest.(check int) "sem value" 2 (L.Sem.value s);
  L.Sem.p s;
  Alcotest.(check bool) "try_p" true (L.Sem.try_p s);
  Alcotest.(check bool) "try_p empty" false (L.Sem.try_p s);
  Alcotest.(check bool) "p_poll expired" false (L.Sem.p_poll s (fun () -> true));
  L.Sem.v_n s 2;
  Alcotest.(check int) "sem restored" 2 (L.Sem.value s)

(* ---------------------------------------------------------------- *)
(* Bakery: bounded timestamps and doorway ordering                  *)
(* ---------------------------------------------------------------- *)

(* Doorways that do not straddle a drain are FCFS: successive doorways
   on distinct slots (single thread, no releases between) mint strictly
   increasing tickets 1..k, all within the bound; after a full drain the
   next doorway starts over at 1. *)
let prop_bakery_doorway_order =
  QCheck.Test.make ~count:100 ~name:"bakery: doorway tickets ordered and bounded"
    QCheck.(pair (int_range 2 6) (int_range 2 64))
    (fun (slots, bound) ->
      let b = B.create ~bound ~slots () in
      let k = min slots bound in
      let tickets = List.init k (fun i -> B.doorway b i) in
      let increasing =
        List.for_all2 (fun tk i -> tk = i + 1) tickets (List.init k Fun.id)
      in
      for i = 0 to k - 1 do
        B.unlock b ~slot:i
      done;
      let after_drain = B.doorway b 0 in
      B.unlock b ~slot:0;
      increasing && B.max_ticket_seen b <= bound && after_drain = 1)

(* Overflow handling, pinned: with bound 2 and two live tickets, a
   third doorway would mint 3 — try_lock must decline (typed as a
   failed attempt, counted as an overflow stall) rather than exceed the
   bound; after the drain it succeeds at ticket 1. *)
let test_bakery_overflow_bounded () =
  let b = B.create ~bound:2 ~slots:3 () in
  Alcotest.(check int) "first ticket" 1 (B.doorway b 0);
  Alcotest.(check int) "second ticket" 2 (B.doorway b 1);
  Alcotest.(check bool) "overflowing try_lock declines" false (B.try_lock b ~slot:2);
  Alcotest.(check int) "one overflow stall" 1 (B.overflow_stalls b);
  Alcotest.(check int) "bound respected" 2 (B.max_ticket_seen b);
  B.unlock b ~slot:0;
  B.unlock b ~slot:1;
  Alcotest.(check bool) "post-drain try_lock" true (B.try_lock b ~slot:2);
  Alcotest.(check int) "restarted at 1 (still bounded)" 2 (B.max_ticket_seen b);
  B.unlock b ~slot:2

(* Concurrent bakery storm with a small bound: exclusion holds, every
   entry lands, and no minted ticket ever exceeds the bound even when
   overflow drains are forced. *)
let test_bakery_bounded_storm () =
  let tasks = 4 and rounds = 150 and bound = 8 in
  let b = B.create ~bound ~slots:tasks () in
  let gauge = Testutil.Gauge.create () in
  let entries = ref 0 in
  Testutil.run_all
    (List.init tasks (fun i () ->
         for _ = 1 to rounds do
           B.lock b ~slot:i;
           Testutil.Gauge.enter gauge;
           incr entries;
           Testutil.Gauge.leave gauge;
           B.unlock b ~slot:i
         done));
  Alcotest.(check int) "mutual exclusion" 1 (Testutil.Gauge.max gauge);
  Alcotest.(check int) "all entries" (tasks * rounds) !entries;
  Alcotest.(check bool)
    (Printf.sprintf "tickets bounded (saw %d)" (B.max_ticket_seen b))
    true
    (B.max_ticket_seen b <= bound)

(* ---------------------------------------------------------------- *)
(* Factories: slot bound and semaphore storms, every restricted class.
   The locks' platform-mutex contracts are rows of the tier table in
   test_platform. *)
(* ---------------------------------------------------------------- *)

(* An RW-class lock maps at most 64 distinct threads onto bakery
   slots; the 65th fails with the named message. *)
let test_rw_slot_overflow () =
  let lk = Prims.make_lock Prims.RW in
  let touch () =
    let r = ref None in
    Platform.Process.join
      (Platform.Process.spawn ~backend:`Thread (fun () ->
           r :=
             match lk.Tier.lock () with
             | () ->
               lk.Tier.unlock ();
               Some "ok"
             | exception Failure msg -> Some msg));
    !r
  in
  for i = 1 to 64 do
    Alcotest.(check (option string)) (Printf.sprintf "thread %d" i) (Some "ok")
      (touch ())
  done;
  Alcotest.(check (option string)) "65th thread"
    (Some "Prims: more than 64 distinct threads on one RW-class lock")
    (touch ())

(* The tier labels are a stable interface: committed BENCH files and
   [bloom_eval load --tier] key on them. *)
let test_tier_names () =
  Alcotest.(check (list string)) "labels"
    [ "default"; "fast"; "rw"; "cas"; "faa"; "llsc"; "native"; "mcs"; "clh";
      "ticket"; "adaptive" ]
    (List.map Tier.name Tier.all);
  List.iter
    (fun t ->
      Alcotest.(check bool) (Tier.name t ^ " round-trips") true
        (Tier.of_string (Tier.name t) = Some t))
    Tier.all;
  Alcotest.(check bool) "unknown label" true (Tier.of_string "sys" = None)

let sem_storm cls fairness () =
  let permits = 2 in
  let sm = Prims.make_sem cls ~fairness permits in
  let tasks = 4 and rounds = 150 in
  let gauge = Testutil.Gauge.create () in
  Testutil.run_all
    (List.init tasks (fun _ () ->
         for _ = 1 to rounds do
           sm.Prims.sm_p ();
           Testutil.Gauge.enter gauge;
           Thread.yield ();
           Testutil.Gauge.leave gauge;
           sm.Prims.sm_v 1
         done));
  Alcotest.(check bool)
    (Printf.sprintf "never above %d permits (saw %d)" permits
       (Testutil.Gauge.max gauge))
    true
    (Testutil.Gauge.max gauge <= permits);
  Alcotest.(check int) "permits conserved" permits (sm.Prims.sm_value ())

(* A P that times out must neither lose nor mint a permit: from an
   empty semaphore, an expired poll returns false, and exactly one
   subsequent V yields exactly one acquirable unit — even on the FCFS
   ticket semaphore, where the abandoned turn is covered by a donated
   unit. *)
let sem_poll_conservation cls fairness () =
  let sm = Prims.make_sem cls ~fairness 0 in
  Alcotest.(check bool) "expired poll" false (sm.Prims.sm_p_poll (fun () -> true));
  sm.Prims.sm_v 1;
  Alcotest.(check bool) "unit available" true (sm.Prims.sm_try ());
  Alcotest.(check bool) "exactly one unit" false (sm.Prims.sm_try ());
  sm.Prims.sm_v 1;
  Alcotest.(check int) "value restored" 1 (sm.Prims.sm_value ())

(* ---------------------------------------------------------------- *)
(* Pinned typed rejection: RW x strong semaphore                    *)
(* ---------------------------------------------------------------- *)

let test_rw_strong_rejected () =
  (match Prims.make_sem Prims.RW ~fairness:`Strong 1 with
  | _ -> Alcotest.fail "RW strong semaphore was not rejected"
  | exception Prims.Unsupported { cls; feature; _ } ->
      Alcotest.(check string) "class" "rw" (Prims.cls_name cls);
      Alcotest.(check string) "feature" "semaphore.strong" feature);
  (* The same rejection must surface through the platform facade: the
     default Counting semaphore is FCFS, so creating one in an RW scope
     is a typed error, never a crash or a silent downgrade. *)
  (match
     Prims.with_class Prims.RW (fun () -> Platform.Semaphore.Counting.create 1)
   with
  | _ -> Alcotest.fail "platform strong semaphore was not rejected on RW"
  | exception Prims.Unsupported { feature; _ } ->
      Alcotest.(check string) "platform feature" "semaphore.strong" feature);
  (* A weak one is expressible and works. *)
  let s =
    Prims.with_class Prims.RW (fun () ->
        Platform.Semaphore.Counting.create ~fairness:`Weak 1)
  in
  Platform.Semaphore.Counting.p s;
  Alcotest.(check bool) "empty" false (Platform.Semaphore.Counting.try_p s);
  Platform.Semaphore.Counting.v s;
  Alcotest.(check bool) "refilled" true (Platform.Semaphore.Counting.try_p s);
  Platform.Semaphore.Counting.v s

let test_native_rejected () =
  match Prims.make_lock Prims.Native with
  | _ -> Alcotest.fail "Native has no prims construction"
  | exception Prims.Unsupported _ -> ()

(* ---------------------------------------------------------------- *)
(* Backoff: creation-scoped spin-vs-yield decision                  *)
(* ---------------------------------------------------------------- *)

let test_backoff_creation_scoped () =
  let spin = Backoff.create ~multicore:true () in
  let yield = Backoff.create ~multicore:false () in
  Alcotest.(check bool) "override true" true (Backoff.multicore spin);
  Alcotest.(check bool) "override false" false (Backoff.multicore yield);
  (* The default probes the machine at create time, not once per
     process: it must agree with the probe result right now. *)
  let probe = Domain.recommended_domain_count () > 1 in
  Alcotest.(check bool) "default matches probe" probe
    (Backoff.multicore (Backoff.create ()));
  (* Both flavours make progress through saturation and reset. *)
  List.iter
    (fun b ->
      for _ = 1 to 20 do
        Backoff.once b
      done;
      Backoff.reset b;
      Backoff.once b)
    [ spin; yield ]

(* The E27 actuator: [set_limits] retunes the defaults new backoffs
   are created with; it is creation-scoped (like the multicore probe),
   validated, and [with_limits] restores on any exit. *)
let test_backoff_set_limits () =
  let orig_min, orig_max = Backoff.limits () in
  Fun.protect
    ~finally:(fun () ->
      Backoff.set_limits ~min_wait:orig_min ~max_wait:orig_max)
    (fun () ->
      Backoff.set_limits ~min_wait:4 ~max_wait:64;
      Alcotest.(check (pair int int)) "retuned" (4, 64) (Backoff.limits ());
      (* explicit bounds still win over the retuned defaults *)
      ignore (Backoff.create ~min_wait:2 ~max_wait:2 ());
      Alcotest.(check (pair int int))
        "explicit create leaves defaults" (4, 64) (Backoff.limits ());
      (* invalid bounds are rejected and leave the defaults in place *)
      List.iter
        (fun (mn, mx) ->
          match Backoff.set_limits ~min_wait:mn ~max_wait:mx with
          | () -> Alcotest.failf "accepted min=%d max=%d" mn mx
          | exception Invalid_argument _ ->
            Alcotest.(check (pair int int))
              "defaults survive rejection" (4, 64) (Backoff.limits ()))
        [ (0, 64); (3, 64); (64, 4); (4, 96); (-8, 8) ];
      (* with_limits scopes the override and restores on raise *)
      let inside = Backoff.with_limits ~min_wait:8 ~max_wait:8 Backoff.limits in
      Alcotest.(check (pair int int)) "scoped" (8, 8) inside;
      Alcotest.(check (pair int int)) "restored" (4, 64) (Backoff.limits ());
      (match
         Backoff.with_limits ~min_wait:16 ~max_wait:32 (fun () ->
             raise Exit)
       with
      | () -> Alcotest.fail "Exit swallowed"
      | exception Exit ->
        Alcotest.(check (pair int int))
          "restored on raise" (4, 64) (Backoff.limits ()));
      (* a backoff created under the new limits still makes progress *)
      let b = Backoff.create () in
      for _ = 1 to 20 do
        Backoff.once b
      done;
      Backoff.reset b;
      Backoff.once b)

(* ---------------------------------------------------------------- *)
(* Hierarchy axis: structure and JSON shape on a tiny grid          *)
(* ---------------------------------------------------------------- *)

module H = Sync_eval.Hierarchy_axis
module Cell = Sync_eval.Cell
module Emit = Sync_metrics.Emit

let tiny_spec ~classes ~mechanisms =
  {
    H.classes;
    problems = [ "fcfs" ];
    mechanisms = Some mechanisms;
    domains = [ 1 ];
    duration_ms = 40;
    warmup_ms = 10;
    seed = 7;
  }

let test_hierarchy_tiny_grid () =
  let rows =
    H.run (tiny_spec ~classes:[ Prims.RW; Prims.CAS ] ~mechanisms:[ "monitor" ])
  in
  Alcotest.(check int) "one row per class" 2 (List.length rows);
  Alcotest.(check bool) "no failures" true (H.all_ok rows);
  List.iter
    (fun r ->
      (match r.Cell.cell.status with
      | Cell.Supported -> ()
      | s -> Alcotest.failf "monitor cell not supported: %s" (Cell.status_string s));
      Alcotest.(check int) "measured domain count" 1 r.Cell.domains;
      Alcotest.(check bool) "made progress" true (r.Cell.cell.throughput_per_s > 0.))
    rows

(* The committed-snapshot shape: an unsupported cell collapses to one
   domains=0 row whose JSON carries the status discriminator and the
   typed feature; the document round-trips through the Emit parser. *)
let test_hierarchy_json_snapshot () =
  let spec = tiny_spec ~classes:[ Prims.RW ] ~mechanisms:[ "semaphore" ] in
  let rows = H.run spec in
  Alcotest.(check int) "probe collapses the domain axis" 1 (List.length rows);
  let r = List.hd rows in
  (match r.Cell.cell.status with
  | Cell.Unsupported { feature; _ } ->
      Alcotest.(check string) "typed feature" "semaphore.strong" feature
  | s -> Alcotest.failf "expected unsupported, got %s" (Cell.status_string s));
  Alcotest.(check int) "unsupported row has no domains" 0 r.Cell.domains;
  Alcotest.(check bool) "unsupported is still all_ok" true (H.all_ok rows);
  let doc = Emit.to_string ~pretty:true (H.to_json spec rows) in
  let parsed = Emit.parse doc in
  Alcotest.(check (list string)) "one document shape" []
    (Sync_metrics.Bench_doc.validate parsed);
  (match Sync_metrics.Bench_doc.header "experiment" parsed with
  | Some (Emit.Str e) -> Alcotest.(check string) "experiment tag" "E25" e
  | _ -> Alcotest.fail "missing experiment tag");
  match Emit.member "rows" parsed with
  | Some rows_json ->
      let cells = Emit.to_list rows_json in
      Alcotest.(check int) "one cell" 1 (List.length cells);
      let cell = List.hd cells in
      List.iter
        (fun key ->
          if Sync_metrics.Bench_doc.coord key cell = None then
            Alcotest.failf "snapshot row has no %S coordinate" key)
        [ "tier"; "problem"; "mechanism"; "domains" ];
      (match Option.bind (Emit.member "status" cell) (Emit.member "unsupported") with
      | Some s ->
          Alcotest.(check (option string)) "typed feature in the status"
            (Some "semaphore.strong")
            (match Emit.member "feature" s with Some (Emit.Str f) -> Some f | _ -> None)
      | None -> Alcotest.fail "snapshot row is not unsupported")
  | None -> Alcotest.fail "missing rows"

let () =
  let qc = Testutil.qcheck_case in
  Alcotest.run "prims"
    [
      ( "llsc",
        [
          qc prop_sc_stale_iff;
          Alcotest.test_case "aba tag wraparound edge" `Quick test_aba_wraparound;
          qc prop_llsc_model;
          Alcotest.test_case "lock and sem basics" `Quick test_llsc_lock_sem;
        ] );
      ( "bakery",
        [
          qc prop_bakery_doorway_order;
          Alcotest.test_case "overflow stays bounded" `Quick
            test_bakery_overflow_bounded;
          Alcotest.test_case "bounded-ticket storm" `Quick
            test_bakery_bounded_storm;
        ] );
      ( "slots",
        [
          Alcotest.test_case "rw 65th thread fails" `Quick
            test_rw_slot_overflow;
        ] );
      ( "tier",
        [ Alcotest.test_case "names round-trip" `Quick test_tier_names ] );
      ( "sems",
        [
          Alcotest.test_case "rw weak conservation" `Quick
            (sem_storm Prims.RW `Weak);
          Alcotest.test_case "cas strong conservation" `Quick
            (sem_storm Prims.CAS `Strong);
          Alcotest.test_case "faa strong conservation" `Quick
            (sem_storm Prims.FAA `Strong);
          Alcotest.test_case "llsc strong conservation" `Quick
            (sem_storm Prims.LLSC `Strong);
          Alcotest.test_case "cas weak conservation" `Quick
            (sem_storm Prims.CAS `Weak);
          Alcotest.test_case "faa poll conservation" `Quick
            (sem_poll_conservation Prims.FAA `Strong);
          Alcotest.test_case "llsc poll conservation" `Quick
            (sem_poll_conservation Prims.LLSC `Strong);
          Alcotest.test_case "rw poll conservation" `Quick
            (sem_poll_conservation Prims.RW `Weak);
        ] );
      ( "rejection",
        [
          Alcotest.test_case "rw strong semaphore is typed" `Quick
            test_rw_strong_rejected;
          Alcotest.test_case "native has no construction" `Quick
            test_native_rejected;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "creation-scoped decision" `Quick
            test_backoff_creation_scoped;
          Alcotest.test_case "set_limits retunes the defaults" `Quick
            test_backoff_set_limits;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "tiny grid measures" `Quick
            test_hierarchy_tiny_grid;
          Alcotest.test_case "json snapshot shape" `Quick
            test_hierarchy_json_snapshot;
        ] );
    ]
