(* E23 scalable-lock tier: FIFO handoff of the queue locks read off a
   logged register substrate, the per-lock slot registry's bound, and
   the epoch read-mostly lock's grace period and writer exclusion. The
   queue locks' platform-mutex contracts (storms, timed abandonment,
   conditions) are rows of the tier table in test_platform. *)

open Sync_platform
open Sync_problems
module Queuelock = Sync_prims.Queuelock

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_result name = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* ------------------------------------------------------------------ *)
(* A {!Sync_prims.Regs.FULL} instance over SC atomics that journals
   every successful RMW commit (register uid, committing thread,
   installed value). The journal mutex is held across the atomic op,
   so journal order IS commit order — which lets the FIFO property
   read queue-arrival order straight off the protocol's own
   tail/ticket register instead of trusting wall-clock timing. *)

module Logged_regs = struct
  type commit = { uid : int; tid : int; rmw : [ `Cas | `Faa ]; installed : int }

  let jm = Stdlib.Mutex.create ()

  let journal : commit list ref = ref []

  let next_uid = ref 0

  let reset () =
    Stdlib.Mutex.lock jm;
    journal := [];
    next_uid := 0;
    Stdlib.Mutex.unlock jm

  let commits () =
    Stdlib.Mutex.lock jm;
    let l = List.rev !journal in
    Stdlib.Mutex.unlock jm;
    l

  type t = { uid : int; a : int Atomic.t }

  let make v =
    Stdlib.Mutex.lock jm;
    let uid = !next_uid in
    incr next_uid;
    Stdlib.Mutex.unlock jm;
    { uid; a = Atomic.make v }

  let get r = Atomic.get r.a

  let set r v = Atomic.set r.a v

  let record uid rmw installed =
    let tid = Thread.id (Thread.self ()) in
    journal := { uid; tid; rmw; installed } :: !journal

  let cas r seen v =
    Stdlib.Mutex.lock jm;
    let ok = Atomic.compare_and_set r.a seen v in
    if ok then record r.uid `Cas v;
    Stdlib.Mutex.unlock jm;
    ok

  let faa r n =
    Stdlib.Mutex.lock jm;
    let prev = Atomic.fetch_and_add r.a n in
    record r.uid `Faa (prev + n);
    Stdlib.Mutex.unlock jm;
    prev

  let await ~watch:_ pred =
    while not (pred ()) do
      Thread.yield ()
    done
end

module QL = Queuelock.Make (Logged_regs)

(* ------------------------------------------------------------------ *)
(* FIFO handoff. Every queue lock's enqueue point is one committed RMW
   on the first register it creates (uid 0): the MCS/CLH tail swap, or
   the ticket FAA. FIFO means the sequence of threads committing there
   equals the sequence of threads subsequently entering the critical
   section — exactly, over the whole storm. *)

(* Which uid-0 commits are arrivals: MCS unlock also CASes the tail
   (installing 0, queue-empty), so those are filtered; CLH and Ticket
   touch uid 0 only on the lock path. *)
let arrival_filter kind (c : Logged_regs.commit) =
  c.uid = 0
  && match kind with Queuelock.MCS -> c.installed <> 0 | _ -> true

let fifo_storm kind =
  Logged_regs.reset ();
  let threads = 4 and rounds = 50 in
  let lock, unlock =
    match kind with
    | Queuelock.MCS ->
      let l = QL.Mcs.create ~slots:threads () in
      ((fun slot -> QL.Mcs.lock l ~slot), fun slot -> QL.Mcs.unlock l ~slot)
    | Queuelock.CLH ->
      let l = QL.Clh.create ~slots:threads () in
      ((fun slot -> QL.Clh.lock l ~slot), fun slot -> QL.Clh.unlock l ~slot)
    | Queuelock.Ticket ->
      let l = QL.Ticket.create () in
      ((fun _ -> QL.Ticket.lock l), fun _ -> QL.Ticket.unlock l)
  in
  let g = Testutil.Gauge.create () in
  (* Written only inside the critical section the lock itself guards. *)
  let acquisitions = ref [] in
  let worker i () =
    let p = Prng.make (Int64.of_int (0xE23 + i)) in
    for _ = 1 to rounds do
      lock i;
      Testutil.Gauge.enter g;
      acquisitions := Thread.id (Thread.self ()) :: !acquisitions;
      Testutil.Gauge.leave g;
      unlock i;
      (* Seeded jitter so arrival patterns vary across rounds. *)
      if Prng.int p 4 = 0 then Thread.yield ()
    done
  in
  Process.run_all ~backend:`Thread (List.init threads worker);
  check_int "never two holders" 1 (Testutil.Gauge.max g);
  let arrivals =
    List.filter_map
      (fun c -> if arrival_filter kind c then Some c.Logged_regs.tid else None)
      (Logged_regs.commits ())
  in
  check_int "one enqueue commit per acquisition" (threads * rounds)
    (List.length arrivals);
  Alcotest.(check (list int)) "CS entry order equals enqueue order" arrivals
    (List.rev !acquisitions)

let test_fifo_mcs () = fifo_storm Queuelock.MCS

let test_fifo_clh () = fifo_storm Queuelock.CLH

let test_fifo_ticket () = fifo_storm Queuelock.Ticket

(* ------------------------------------------------------------------ *)
(* Slot registry: an MCS lock maps at most 64 distinct threads onto its
   slots; the 65th fails with the named message, not a wild index. *)

let test_mcs_slot_overflow () =
  let lk = Queuelock.make_lock Queuelock.MCS in
  let touch () =
    let r = ref None in
    Process.join
      (Testutil.spawn (fun () ->
           r :=
             match lk.Sync_prims.Tier.lock () with
             | () ->
               lk.Sync_prims.Tier.unlock ();
               Some "ok"
             | exception Failure msg -> Some msg));
    !r
  in
  for i = 1 to 64 do
    Alcotest.(check (option string)) (Printf.sprintf "thread %d" i) (Some "ok")
      (touch ())
  done;
  Alcotest.(check (option string)) "65th thread"
    (Some "Queuelock: more than 64 distinct threads on one queue lock")
    (touch ())

(* ------------------------------------------------------------------ *)
(* Epoch read-mostly lock (E23). *)

(* Grace period: a writer that has raised intent must not proceed while
   any slot is mid-section, and must be admitted once the reader
   leaves. *)
let test_epoch_grace_period () =
  let t = Epochrw.create () in
  Epochrw.read_lock t;
  check_int "one reader in-slot" 1 (Epochrw.readers t);
  let entered = Atomic.make false in
  let w =
    Testutil.spawn (fun () ->
        Epochrw.write_lock t;
        Atomic.set entered true;
        Epochrw.write_unlock t)
  in
  Testutil.eventually "writer raises intent" (fun () ->
      Epochrw.writer_active t);
  Testutil.never "writer entered over a live reader" (fun () ->
      Atomic.get entered);
  Epochrw.read_unlock t;
  Testutil.eventually "writer admitted after the grace period" (fun () ->
      Atomic.get entered);
  Process.join w;
  check_int "no readers left" 0 (Epochrw.readers t);
  check_bool "intent cleared" false (Epochrw.writer_active t)

(* Reader retreat: a reader arriving during a write section parks until
   the writer leaves. *)
let test_epoch_reader_blocked_by_writer () =
  let t = Epochrw.create () in
  Epochrw.write_lock t;
  let entered = Atomic.make false in
  let r =
    Testutil.spawn (fun () ->
        Epochrw.read_lock t;
        Atomic.set entered true;
        Epochrw.read_unlock t)
  in
  Testutil.never "reader entered during the write" (fun () ->
      Atomic.get entered);
  Epochrw.write_unlock t;
  Testutil.eventually "reader admitted after the write" (fun () ->
      Atomic.get entered);
  Process.join r;
  check_int "drained" 0 (Epochrw.readers t)

(* Seeded storm: writers exclude each other and never run over an
   in-section reader. *)
let test_epoch_storm () =
  let t = Epochrw.create () in
  let wg = Testutil.Gauge.create () in
  let rg = Testutil.Gauge.create () in
  let overlap = Atomic.make false in
  let reader i () =
    let p = Prng.make (Int64.of_int (100 + i)) in
    for _ = 1 to 300 do
      Epochrw.with_read t (fun () ->
          Testutil.Gauge.enter rg;
          Testutil.Gauge.leave rg);
      if Prng.int p 8 = 0 then Thread.yield ()
    done
  in
  let writer i () =
    let p = Prng.make (Int64.of_int (200 + i)) in
    for _ = 1 to 60 do
      Epochrw.with_write t (fun () ->
          Testutil.Gauge.enter wg;
          if Testutil.Gauge.current rg > 0 then Atomic.set overlap true;
          Testutil.Gauge.leave wg);
      if Prng.int p 4 = 0 then Thread.yield ()
    done
  in
  Process.run_all ~backend:`Thread (List.init 4 reader @ List.init 2 writer);
  check_int "one writer at a time" 1 (Testutil.Gauge.max wg);
  check_bool "no reader inside a write section" false (Atomic.get overlap);
  check_int "all slots drained" 0 (Epochrw.readers t)

(* The Rw_epoch mechanism through the shared readers-writers harness:
   the same exclusion stress and reader-overlap scenario every other
   mechanism passes. *)
let test_rw_epoch_exclusion () =
  check_result "epoch exclusion"
    (Rw_harness.verify_exclusion ~readers:6 ~writers:3 ~reads_each:25
       ~writes_each:8
       (module Rw_epoch.Read_mostly))

let test_rw_epoch_reader_overlap () =
  check_result "epoch reader overlap"
    (Rw_harness.scenario_reader_overlap (module Rw_epoch.Read_mostly))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "queue"
    [ ( "fifo-handoff",
        [ Alcotest.test_case "mcs" `Quick test_fifo_mcs;
          Alcotest.test_case "clh" `Quick test_fifo_clh;
          Alcotest.test_case "ticket" `Quick test_fifo_ticket ] );
      ( "slots",
        [ Alcotest.test_case "mcs 65th thread fails" `Quick
            test_mcs_slot_overflow ] );
      ( "epoch",
        [ Alcotest.test_case "grace period" `Quick test_epoch_grace_period;
          Alcotest.test_case "reader blocked by writer" `Quick
            test_epoch_reader_blocked_by_writer;
          Alcotest.test_case "storm" `Quick test_epoch_storm;
          Alcotest.test_case "harness exclusion" `Quick
            test_rw_epoch_exclusion;
          Alcotest.test_case "harness reader overlap" `Quick
            test_rw_epoch_reader_overlap ] ) ]
