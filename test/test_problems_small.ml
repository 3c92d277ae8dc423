(* One-slot buffer and FCFS across all five mechanisms. *)
open Sync_problems

let check_result name = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg

let slot_solutions : (string * (module Slot_intf.S)) list =
  [ ("semaphore", (module Slot_sem)); ("monitor", (module Slot_mon));
    ("serializer", (module Slot_ser)); ("pathexpr", (module Slot_path));
    ("csp", (module Slot_csp)); ("ccr", (module Slot_ccr));
    ("eventcount", (module Slot_evc)) ]

let fcfs_solutions : (string * (module Fcfs_intf.S)) list =
  [ ("semaphore", (module Fcfs_sem)); ("monitor", (module Fcfs_mon));
    ("serializer", (module Fcfs_ser)); ("pathexpr", (module Fcfs_path));
    ("csp", (module Fcfs_csp)); ("ccr", (module Fcfs_ccr));
    ("eventcount", (module Fcfs_evc)) ]

let slot_default (name, m) () = check_result name (Slot_harness.verify m)

let slot_single_pair (name, m) () =
  check_result name
    (Slot_harness.verify ~putters:1 ~getters:1 ~items_per_putter:50 m)

let slot_many (name, m) () =
  check_result name
    (Slot_harness.verify ~putters:5 ~getters:5 ~items_per_putter:10 m)

let fcfs_default (name, m) () = check_result name (Fcfs_harness.verify m)

let fcfs_more_users (name, m) () =
  check_result name (Fcfs_harness.verify ~users:8 m)

let suite solutions mk =
  List.map
    (fun (name, m) -> Alcotest.test_case name `Quick (mk (name, m)))
    solutions

let () =
  Alcotest.run "problems-small"
    [ ("slot-default", suite slot_solutions slot_default);
      ("slot-1p1c", suite slot_solutions slot_single_pair);
      ("slot-many", suite slot_solutions slot_many);
      ("fcfs-default", suite fcfs_solutions fcfs_default);
      ("fcfs-8users", suite fcfs_solutions fcfs_more_users) ]
