(* The disk-head scheduler: SCAN vs FCFS arm travel.

   Runs the same random request stream through Hoare's elevator monitor
   and through a plain FCFS semaphore, holding the disk briefly per
   transfer so a request backlog forms, then prints the accumulated arm
   travel of each — regenerating the "why schedule the disk at all"
   motivation (and the data behind bench E-disk).

     dune exec examples/disk_scheduler.exe
*)

open Sync_problems

let travel name m =
  let travel, accesses =
    Disk_harness.run_stress m ~tracks:500 ~workers:8 ~requests_each:25
      ~hold_s:0.002 ~seed:42L ()
  in
  Printf.printf "%-24s %5d accesses, total arm travel %6d (%.1f per access)\n%!"
    name accesses travel
    (float_of_int travel /. float_of_int accesses);
  travel

let () =
  print_endline "-- elevator (SCAN) vs first-come-first-served --";
  let scan = travel "monitor SCAN" (module Disk_mon) in
  let scan_ser = travel "serializer SCAN" (module Disk_ser) in
  let scan_csp = travel "CSP SCAN" (module Disk_csp) in
  let fcfs = travel "FCFS baseline" (module Disk_fcfs) in
  Printf.printf
    "\nSCAN saved %.0f%% arm travel over FCFS on this workload\n"
    (100.0 *. (1.0 -. (float_of_int scan /. float_of_int fcfs)));
  ignore (scan_ser, scan_csp);
  print_endline "";
  print_endline "-- staged batch: the exact elevator order --";
  let order, expected, _events =
    Staged.run ~seed:0
      (Disk_harness.run_staged (module Disk_mon) ~head:50
         ~batch:[ 10; 60; 55; 20; 90; 5; 75 ])
  in
  Printf.printf "head at 50, pending [10;60;55;20;90;5;75]\n";
  Printf.printf "served:   [%s]\n"
    (String.concat "; " (List.map string_of_int order));
  Printf.printf "elevator: [%s]\n"
    (String.concat "; " (List.map string_of_int expected))
