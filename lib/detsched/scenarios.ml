(* The scenario catalog: real mechanism implementations wired into the
   deterministic harness. Each [make] runs inside the deterministic run
   body, so the mechanism's mutexes and conditions are virtual; each
   check feeds the recorded trace to the existing [sync_problems]
   checkers. [expect] records whether exploration is supposed to find
   failing schedules — [Fail] entries are the reproduced anomalies, and
   [Always_fail] ones are anomalies no schedule avoids. *)

open Sync_problems

type expectation = Pass | Fail | Always_fail

type entry = { scen : Detsched.t; expect : expectation }

let bb_sized name (module B : Bb_intf.S) ~capacity ~producers ~consumers
    ~items =
  Detsched.scenario ~name
    ~descr:
      (Printf.sprintf
         "bounded buffer (%s): %d producers x %d items, %d consumers, \
          capacity %d"
         B.mechanism producers items consumers capacity)
    (fun () ->
      let report = ref None in
      { Detsched.body =
          (fun () ->
            report :=
              Some
                (Bb_harness.run (module B) ~capacity ~producers ~consumers
                   ~items_per_producer:items ~work:0 ~seed:1L ()));
        check =
          (fun () ->
            match !report with
            | None -> Error "scenario body did not run"
            | Some r -> Bb_harness.check ~producers r) })

let bb name m = bb_sized name m ~capacity:2 ~producers:2 ~consumers:2 ~items:3

let rw_handoff ?(variant = "") name (module S : Rw_intf.S) =
  Detsched.scenario ~name
    ~descr:
      (Printf.sprintf "footnote-3 writer handoff (%s%s, %s policy)"
         S.mechanism
         (if variant = "" then "" else ", " ^ variant)
         (Rw_intf.policy_to_string S.policy))
    (fun () ->
      let got = ref None in
      { Detsched.body =
          (fun () ->
            got := Some (Rw_harness.det_scenario_writer_handoff (module S) ()));
        check =
          (fun () ->
            match !got with
            | None -> Error "scenario body did not run"
            | Some r -> Rw_harness.det_check_writer_handoff (module S) r) })

let fcfs name (module S : Fcfs_intf.S) ~variant ~users =
  Detsched.scenario ~name
    ~descr:
      (Printf.sprintf
         "FCFS drain order (%s%s): gated holder, %d contenders queued in order"
         S.mechanism
         (if variant = "" then "" else ", " ^ variant)
         users)
    (fun () ->
      let report = ref None in
      { Detsched.body =
          (fun () -> report := Some (Fcfs_harness.run (module S) ~users ()));
        check =
          (fun () ->
            match !report with
            | None -> Error "scenario body did not run"
            | Some r -> Fcfs_harness.check r) })

(* Hoare's no-barging guarantee on the real monitor: W waits on [c];
   once it is parked, S deposits a token and signals while a thief T
   enters and takes any token it sees. Signal-and-wait hands the monitor
   straight to W, so W sees the token on every schedule; under
   signal-and-continue T can enter between the signal and W's re-entry
   and W, which does not re-test, sees the token gone. *)
let no_barging name discipline =
  let open Sync_platform in
  let open Sync_monitor in
  Detsched.scenario ~name
    ~descr:
      (Printf.sprintf
         "no barging (%s monitor): a signalled waiter sees the token its \
          signaller left, despite a thief at the entry"
         (match discipline with `Hoare -> "Hoare" | `Mesa -> "Mesa"))
    (fun () ->
      let saw = ref None in
      { Detsched.body =
          (fun () ->
            let m = Monitor.create ~discipline () in
            let c = Monitor.Cond.create m in
            let token = ref 0 in
            let waiter =
              Detrt.spawn ~name:"W" (fun () ->
                  Monitor.with_monitor m (fun () ->
                      Monitor.Cond.wait c;
                      saw := Some !token))
            in
            Detrt.await_quiescence ();
            let signaller =
              Detrt.spawn ~name:"S" (fun () ->
                  Monitor.with_monitor m (fun () ->
                      token := 1;
                      Monitor.Cond.signal c))
            in
            let thief =
              Detrt.spawn ~name:"T" (fun () ->
                  Monitor.with_monitor m (fun () ->
                      if !token = 1 then token := 0))
            in
            List.iter Detrt.join [ waiter; signaller; thief ]);
        check =
          (fun () ->
            match !saw with
            | Some 1 -> Ok ()
            | Some n -> Error (Printf.sprintf "waiter saw %d" n)
            | None -> Error "waiter never resumed") })

(* Readers-writers exclusion under the full stress mix: every reader and
   writer goes through the self-checking store, so the scenario machine-
   checks the mutual-exclusion invariant on every explored schedule. The
   instance sizes are exploration knobs: the E26 axis runs shapes whose
   schedule trees naive DFS cannot finish. *)
let rw_excl name (module S : Rw_intf.S) ~readers ~writers ~ops =
  Detsched.scenario ~name
    ~descr:
      (Printf.sprintf
         "readers-writers exclusion (%s): %d readers x %d writers x %d ops"
         S.mechanism readers writers ops)
    (fun () ->
      let report = ref None in
      { Detsched.body =
          (fun () ->
            report :=
              Some
                (Rw_harness.run_stress (module S) ~backend:`Det ~readers
                   ~writers ~reads_each:ops ~writes_each:ops ~work:0 ()));
        check =
          (fun () ->
            match !report with
            | None -> Error "scenario body did not run"
            | Some r -> Rw_harness.check_exclusion r) })

(* The E19 cancellation storm, parametric in the instance size: aborts
   injected at the semaphore's pre-wait and the first put body, with the
   recovery machinery (rollback/redonate via waitq) checked on every
   surviving operation. The smallest shape is DFS-feasible; larger ones
   are DPOR territory. *)
let storm_bb_sem ?(capacity = 1) ?(producers = 1) ?(consumers = 1)
    ?(items = 2) () =
  let open Sync_platform in
  Detsched.scenario
    ~name:(Printf.sprintf "storm-bb-sem-%dp%dc%di" producers consumers items)
    ~descr:
      (Printf.sprintf
         "cancellation storm (semaphore bb, %dp/%dc, %d items each): abort \
          at semaphore.pre-wait and bb.put.body"
         producers consumers items)
    (fun () ->
      let report = ref None in
      let plan =
        Fault.plan
          [ ("semaphore.pre-wait", Fault.Nth 2); ("bb.put.body", Fault.Nth 1) ]
      in
      { Detsched.body =
          (fun () ->
            report :=
              Some
                (Fault.with_plan plan (fun () ->
                     Bb_harness.run_abort (module Bb_sem) ~backend:`Det
                       ~capacity ~producers ~consumers
                       ~items_per_producer:items ())));
        check =
          (fun () ->
            match !report with
            | None -> Error "scenario body did not run"
            | Some r -> Bb_harness.check_abort ~producers r) })

(* ---- E25: class-restricted locks on deterministic registers ----

   The prims functors ([Bakery.Make], [Faalock.Make], [Ticket_sem.Make])
   instantiated over [Detrt]'s recorded registers: every protocol step —
   each read, write, CAS, FAA, and the parked [await] — is a scheduling
   point the explorers control, so DPOR enumerates the algorithms' real
   interleavings, not a lucky subset. Slots are task indices (the classic
   static-process model), no thread registry involved. *)

module Det_regs :
  Sync_prims.Regs.FULL with type t = Sync_platform.Detrt.reg = struct
  open Sync_platform

  type t = Detrt.reg

  let make = Detrt.reg

  let get = Detrt.reg_get

  let set = Detrt.reg_set

  let cas = Detrt.reg_cas

  let faa = Detrt.reg_faa

  let await = Detrt.reg_await
end

module Det_bakery = Sync_prims.Bakery.Make (Det_regs)
module Det_faa = Sync_prims.Faalock.Make (Det_regs)
module Det_ticket_sem = Sync_prims.Ticket_sem.Make (Det_regs)
module Det_queue = Sync_prims.Queuelock.Make (Det_regs)

(* Mutual-exclusion check with a recorded register as the witness: the
   owner register's ops are scheduling points themselves, so if two
   tasks can ever be inside the critical section together, some explored
   schedule interleaves their owner writes and the check trips — no
   hand-placed yields needed. *)
let prim_excl name ~descr ~tasks ~rounds ~(make : tasks:int ->
    (int -> unit) * (int -> unit)) =
  let open Sync_platform in
  Detsched.scenario ~name ~descr (fun () ->
      let viol = ref 0 and entries = ref 0 in
      { Detsched.body =
          (fun () ->
            let lock, unlock = make ~tasks in
            let owner = Det_regs.make 0 in
            let ts =
              List.init tasks (fun i ->
                  Detrt.spawn ~name:(Printf.sprintf "p%d" i) (fun () ->
                      for _ = 1 to rounds do
                        lock i;
                        if Det_regs.get owner <> 0 then incr viol;
                        Det_regs.set owner (i + 1);
                        if Det_regs.get owner <> i + 1 then incr viol;
                        Det_regs.set owner 0;
                        incr entries;
                        unlock i
                      done))
            in
            List.iter Detrt.join ts);
        check =
          (fun () ->
            if !viol > 0 then
              Error (Printf.sprintf "%d exclusion violation(s)" !viol)
            else if !entries <> tasks * rounds then
              Error
                (Printf.sprintf "%d critical sections, expected %d" !entries
                   (tasks * rounds))
            else Ok ()) })

let bakery_excl ~tasks ~rounds =
  prim_excl
    (Printf.sprintf "bakery-excl-%dt%dr" tasks rounds)
    ~descr:
      (Printf.sprintf
         "bakery lock (RW registers, bounded timestamps): %d tasks x %d \
          rounds, exclusion witnessed on a recorded register"
         tasks rounds)
    ~tasks ~rounds
    ~make:(fun ~tasks ->
      let b = Det_bakery.create ~bound:16 ~slots:tasks () in
      ( (fun i -> Det_bakery.lock b ~slot:i),
        fun i -> Det_bakery.unlock b ~slot:i ))

let ticket_excl ~tasks ~rounds =
  prim_excl
    (Printf.sprintf "ticket-excl-%dt%dr" tasks rounds)
    ~descr:
      (Printf.sprintf
         "FAA ticket lock: %d tasks x %d rounds, exclusion witnessed on a \
          recorded register"
         tasks rounds)
    ~tasks ~rounds
    ~make:(fun ~tasks:_ ->
      let l = Det_faa.Lock.create () in
      ((fun _ -> Det_faa.Lock.lock l), fun _ -> Det_faa.Lock.unlock l))

(* E23: the queue locks on the same recorded registers. The spacer
   arrays and the proportional-backoff delay are pure computation —
   invisible to the scheduler — so DPOR explores exactly the protocol's
   register traffic: tail swaps, successor links, handoff stores. A
   dropped handoff (an unlock that never releases its successor's spin
   register) would leave that task parked in [await] forever and
   surface as a deterministic-runtime deadlock on that schedule. *)
let mcs_excl ~tasks ~rounds =
  prim_excl
    (Printf.sprintf "mcs-excl-%dt%dr" tasks rounds)
    ~descr:
      (Printf.sprintf
         "MCS queue lock (local spin, FIFO handoff): %d tasks x %d rounds, \
          exclusion witnessed on a recorded register"
         tasks rounds)
    ~tasks ~rounds
    ~make:(fun ~tasks ->
      let l = Det_queue.Mcs.create ~slots:tasks () in
      ( (fun i -> Det_queue.Mcs.lock l ~slot:i),
        fun i -> Det_queue.Mcs.unlock l ~slot:i ))

let clh_excl ~tasks ~rounds =
  prim_excl
    (Printf.sprintf "clh-excl-%dt%dr" tasks rounds)
    ~descr:
      (Printf.sprintf
         "CLH queue lock (spin on predecessor's node): %d tasks x %d \
          rounds, exclusion witnessed on a recorded register"
         tasks rounds)
    ~tasks ~rounds
    ~make:(fun ~tasks ->
      let l = Det_queue.Clh.create ~slots:tasks () in
      ( (fun i -> Det_queue.Clh.lock l ~slot:i),
        fun i -> Det_queue.Clh.unlock l ~slot:i ))

let qticket_excl ~tasks ~rounds =
  prim_excl
    (Printf.sprintf "qticket-excl-%dt%dr" tasks rounds)
    ~descr:
      (Printf.sprintf
         "proportional-backoff ticket lock: %d tasks x %d rounds, \
          exclusion witnessed on a recorded register"
         tasks rounds)
    ~tasks ~rounds
    ~make:(fun ~tasks:_ ->
      let l = Det_queue.Ticket.create () in
      ( (fun _ -> Det_queue.Ticket.lock l),
        fun _ -> Det_queue.Ticket.unlock l ))

(* ---- E27: the hot-swap tier indirection, modeled ----

   The adaptive tier's retiering protocol over recorded registers: an
   acquire reads the current-cell register, locks that cell, and
   re-checks the register (unlock and retry on a miss); the flipper
   locks the current cell, redirects the register, and unlocks — the
   exact [Mutex.swap_to] protocol. After each flip the flipper itself
   enters the critical section once through the new tier — the E27
   hazard is precisely a stale worker (cell locked, register already
   redirected) overlapping a post-flip entrant, so the minimal
   [tasks:1] instance puts that race on a DPOR-completable tree. The
   cell locks are FAA ticket locks over the same recorded registers —
   the CAS test-and-set alternative's failed-acquire retries explode
   the tree past what any explorer can finish, while the ticket lock's
   acquire is one FAA plus one await. Every protocol step is a
   scheduling point, and the owner-register witness trips if any
   schedule ever lets the old and the new cell admit a holder
   together. [recheck:false] drops the re-check — the protocol's
   load-bearing step — and must be caught. *)
let swap_excl_protocol ~recheck ~tasks ~rounds ~flips =
  let open Sync_platform in
  Detsched.scenario
    ~name:
      (Printf.sprintf "swap-excl%s-%dt%dr%df"
         (if recheck then "" else "-norecheck")
         tasks rounds flips)
    ~descr:
      (Printf.sprintf
         "hot-swap indirection%s: %d tasks x %d rounds through the \
          current-cell register, %d mid-run flip(s); exclusion witnessed \
          on a recorded register"
         (if recheck then "" else " WITHOUT the re-check (broken)")
         tasks rounds flips)
    (fun () ->
      let viol = ref 0 and entries = ref 0 and flipped = ref 0 in
      { Detsched.body =
          (fun () ->
            let cells =
              [| Det_faa.Lock.create (); Det_faa.Lock.create () |]
            in
            let cur = Det_regs.make 0 in
            let lock_cell c = Det_faa.Lock.lock cells.(c) in
            let unlock_cell c = Det_faa.Lock.unlock cells.(c) in
            let rec acquire () =
              let c = Det_regs.get cur in
              lock_cell c;
              if recheck && Det_regs.get cur <> c then begin
                unlock_cell c;
                acquire ()
              end
              else c
            in
            let owner = Det_regs.make 0 in
            let critical id =
              if Det_regs.get owner <> 0 then incr viol;
              Det_regs.set owner id;
              if Det_regs.get owner <> id then incr viol;
              Det_regs.set owner 0;
              incr entries
            in
            let ts =
              List.init tasks (fun i ->
                  Detrt.spawn ~name:(Printf.sprintf "w%d" i) (fun () ->
                      for _ = 1 to rounds do
                        let c = acquire () in
                        critical (i + 1);
                        unlock_cell c
                      done))
            in
            let flipper =
              Detrt.spawn ~name:"flipper" (fun () ->
                  for _ = 1 to flips do
                    let c = Det_regs.get cur in
                    lock_cell c;
                    Det_regs.set cur (1 - c);
                    unlock_cell c;
                    incr flipped;
                    (* Enter once through the tier just installed: the
                       schedule where this overlaps a worker that read
                       the register before the flip is the one the
                       re-check exists to kill. *)
                    let c = acquire () in
                    critical (tasks + 1);
                    unlock_cell c
                  done)
            in
            List.iter Detrt.join ts;
            Detrt.join flipper);
        check =
          (fun () ->
            if !viol > 0 then
              Error (Printf.sprintf "%d exclusion violation(s)" !viol)
            else if !entries <> (tasks * rounds) + flips then
              Error
                (Printf.sprintf "%d critical sections, expected %d" !entries
                   ((tasks * rounds) + flips))
            else if !flipped <> flips then
              Error (Printf.sprintf "%d flips, expected %d" !flipped flips)
            else Ok ()) })

let swap_excl ~tasks ~rounds ~flips =
  swap_excl_protocol ~recheck:true ~tasks ~rounds ~flips

let swap_excl_norecheck ~tasks ~rounds ~flips =
  swap_excl_protocol ~recheck:false ~tasks ~rounds ~flips

(* The control experiment: the textbook broken lock (test, then set —
   no atomicity between them). Exploration must find the schedule where
   both tasks pass the test before either sets the flag; with it, the
   exclusion machinery above demonstrably detects real violations. *)
let naive_rw_excl ~tasks ~rounds =
  prim_excl
    (Printf.sprintf "naive-rw-excl-%dt%dr" tasks rounds)
    ~descr:
      (Printf.sprintf
         "BROKEN test-then-set RW lock: %d tasks x %d rounds; exploration \
          must find the exclusion violation"
         tasks rounds)
    ~tasks ~rounds
    ~make:(fun ~tasks:_ ->
      let flag = Det_regs.make 0 in
      ( (fun _ ->
          Det_regs.await ~watch:[| flag |] (fun () ->
              Det_regs.get flag = 0);
          Det_regs.set flag 1),
        fun _ -> Det_regs.set flag 0 ))

(* FCFS ticket-semaphore handoff: budget 1, [tasks] contenders each
   P/critical/V. A lost wakeup — a V whose budget bump fails to wake the
   parked taker whose turn it funds — would leave that task blocked
   forever and surface as a deterministic-runtime deadlock on that
   schedule; the entry expects none exists. *)
let ticket_sem_handoff ~tasks =
  let open Sync_platform in
  Detsched.scenario
    ~name:(Printf.sprintf "ticket-sem-handoff-%dt" tasks)
    ~descr:
      (Printf.sprintf
         "FCFS ticket semaphore (FAA): %d contenders hand one unit along; \
          a lost wakeup would deadlock the run"
         tasks)
    (fun () ->
      let viol = ref 0 and passes = ref 0 in
      { Detsched.body =
          (fun () ->
            let s = Det_ticket_sem.create 1 in
            let owner = Det_regs.make 0 in
            let ts =
              List.init tasks (fun i ->
                  Detrt.spawn ~name:(Printf.sprintf "w%d" i) (fun () ->
                      Det_ticket_sem.p s;
                      if Det_regs.get owner <> 0 then incr viol;
                      Det_regs.set owner (i + 1);
                      if Det_regs.get owner <> i + 1 then incr viol;
                      Det_regs.set owner 0;
                      incr passes;
                      Det_ticket_sem.v_n s 1))
            in
            List.iter Detrt.join ts);
        check =
          (fun () ->
            if !viol > 0 then
              Error (Printf.sprintf "%d exclusion violation(s)" !viol)
            else if !passes <> tasks then
              Error (Printf.sprintf "%d passes, expected %d" !passes tasks)
            else Ok ()) })

(* Not a mechanism under test but a harness self-check: opposite lock
   orders, so some schedules deadlock and some do not — DFS must find
   both, and the runtime must report the deadlock rather than hang. *)
let deadlock =
  let open Sync_platform in
  Detsched.scenario ~name:"deadlock-abba"
    ~descr:"two tasks take two locks in opposite orders; some schedules deadlock"
    (fun () ->
      let a = Mutex.create () and b = Mutex.create () in
      (* Raw [Detrt] tasks, not [Process]: the process wrapper's own
         error mutex would add scheduling points and inflate the tree
         this demo exists to enumerate completely. *)
      { Detsched.body =
          (fun () ->
            let t1 =
              Detrt.spawn ~name:"locker-ab" (fun () ->
                  Mutex.lock a;
                  Mutex.lock b;
                  Mutex.unlock b;
                  Mutex.unlock a)
            in
            let t2 =
              Detrt.spawn ~name:"locker-ba" (fun () ->
                  Mutex.lock b;
                  Mutex.lock a;
                  Mutex.unlock a;
                  Mutex.unlock b)
            in
            Detrt.join t1;
            Detrt.join t2);
        check = (fun () -> Ok ()) })

(* The monitor readers-priority solution with only its release-site
   signal choice reversed: it still claims readers priority, and the
   handoff scenario shows the claim now fails on every schedule. *)
module Rw_mon_flip = Rw_mon.Make_readers_prio (struct
  let discipline = `Hoare

  let variant = "readers-priority-flipped"

  let readers_first = false
end)

let all : entry list =
  [ { scen = bb "bb-sem" (module Bb_sem); expect = Pass };
    { scen = bb "bb-mon" (module Bb_mon); expect = Pass };
    { scen =
        bb_sized "bb-sem-small" (module Bb_sem) ~capacity:1 ~producers:1
          ~consumers:1 ~items:2;
      expect = Pass };
    { scen =
        rw_excl "rw-mon-excl" (module Rw_mon.Readers_prio) ~readers:2
          ~writers:1 ~ops:1;
      expect = Pass };
    { scen = storm_bb_sem (); expect = Pass };
    { scen = rw_handoff "rw-fig1" (module Rw_path.Fig1); expect = Always_fail };
    { scen = rw_handoff "rw-fig2" (module Rw_path.Fig2); expect = Pass };
    { scen = rw_handoff "rw-sem" (module Rw_sem.Readers_prio);
      expect = Always_fail };
    { scen =
        rw_handoff "rw-sem-baton" ~variant:"baton"
          (module Rw_sem.Readers_prio_baton);
      expect = Pass };
    { scen = rw_handoff "rw-mon" (module Rw_mon.Readers_prio); expect = Pass };
    { scen =
        rw_handoff "rw-mon-flip" ~variant:"release-site signal reversed"
          (module Rw_mon_flip);
      expect = Always_fail };
    { scen = rw_handoff "rw-ser" (module Rw_ser.Readers_prio); expect = Pass };
    { scen = no_barging "mon-no-barging" `Hoare; expect = Pass };
    { scen = no_barging "mon-no-barging-mesa" `Mesa; expect = Fail };
    { scen = fcfs "fcfs-mon-hoare" (module Fcfs_mon) ~variant:"hoare" ~users:4;
      expect = Pass };
    { scen = fcfs "fcfs-mon-mesa" (module Fcfs_mon.Mesa) ~variant:"mesa" ~users:4;
      expect = Pass };
    { scen = fcfs "fcfs-sem" (module Fcfs_sem) ~variant:"" ~users:4; expect = Pass };
    { scen = fcfs "fcfs-sem-3u" (module Fcfs_sem) ~variant:"" ~users:3;
      expect = Pass };
    { scen = bakery_excl ~tasks:2 ~rounds:1; expect = Pass };
    { scen = ticket_excl ~tasks:2 ~rounds:2; expect = Pass };
    { scen = mcs_excl ~tasks:2 ~rounds:1; expect = Pass };
    { scen = clh_excl ~tasks:2 ~rounds:1; expect = Pass };
    { scen = qticket_excl ~tasks:2 ~rounds:2; expect = Pass };
    { scen = swap_excl ~tasks:1 ~rounds:1 ~flips:1; expect = Pass };
    { scen = swap_excl_norecheck ~tasks:1 ~rounds:1 ~flips:1; expect = Fail };
    { scen = naive_rw_excl ~tasks:2 ~rounds:1; expect = Fail };
    { scen = ticket_sem_handoff ~tasks:3; expect = Pass };
    { scen = deadlock; expect = Fail } ]

let find name = List.find_opt (fun e -> e.scen.Detsched.name = name) all
