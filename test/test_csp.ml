open Sync_csp

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let test_rendezvous () =
  let net = Csp.network () in
  let ch = Csp.Channel.create ~name:"ch" net in
  let got = Atomic.make 0 in
  let receiver = Testutil.spawn (fun () -> Atomic.set got (Csp.recv ch)) in
  Csp.send ch 41;
  Sync_platform.Process.join receiver;
  check_int "value passed" 41 (Atomic.get got)

let test_send_blocks_until_recv () =
  let net = Csp.network () in
  let ch = Csp.Channel.create net in
  let sent = Atomic.make false in
  let sender =
    Testutil.spawn (fun () ->
        Csp.send ch 1;
        Atomic.set sent true)
  in
  Testutil.never "send completed alone" (fun () -> Atomic.get sent);
  check_int "one waiting sender" 1 (Csp.Channel.waiting_senders ch);
  ignore (Csp.recv ch);
  Sync_platform.Process.join sender;
  check_bool "send completed" true (Atomic.get sent)

let test_fifo_senders () =
  let net = Csp.network () in
  let ch = Csp.Channel.create net in
  let ts =
    List.init 3 (fun i ->
        let t = Testutil.spawn (fun () -> Csp.send ch i) in
        Testutil.eventually "sender parked" (fun () ->
            Csp.Channel.waiting_senders ch = i + 1);
        t)
  in
  let received = List.init 3 (fun _ -> Csp.recv ch) in
  List.iter Sync_platform.Process.join ts;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2 ] received

let test_try_operations () =
  let net = Csp.network () in
  let ch = Csp.Channel.create net in
  check_bool "try_send with no receiver" false (Csp.try_send ch 1);
  check_bool "try_recv with no sender" true (Csp.try_recv ch = None);
  let sender = Testutil.spawn (fun () -> Csp.send ch 9) in
  Testutil.eventually "sender parked" (fun () ->
      Csp.Channel.waiting_senders ch = 1);
  Alcotest.(check (option int)) "try_recv" (Some 9) (Csp.try_recv ch);
  Sync_platform.Process.join sender

let test_select_ready_case () =
  let net = Csp.network () in
  let a = Csp.Channel.create ~name:"a" net in
  let b = Csp.Channel.create ~name:"b" net in
  let sender = Testutil.spawn (fun () -> Csp.send b 7) in
  Testutil.eventually "sender parked" (fun () ->
      Csp.Channel.waiting_senders b = 1);
  let r =
    Csp.select
      [ Csp.recv_case a (fun v -> `A v); Csp.recv_case b (fun v -> `B v) ]
  in
  Sync_platform.Process.join sender;
  check_bool "picked b" true (r = `B 7)

let test_select_blocks_then_commits_once () =
  let net = Csp.network () in
  let a = Csp.Channel.create net in
  let b = Csp.Channel.create net in
  let result = Atomic.make 0 in
  let chooser =
    Testutil.spawn (fun () ->
        let v =
          Csp.select [ Csp.recv_case a (fun v -> v); Csp.recv_case b (fun v -> v) ]
        in
        Atomic.set result v)
  in
  Testutil.never "select returned early" (fun () -> Atomic.get result <> 0);
  Csp.send a 5;
  Sync_platform.Process.join chooser;
  check_int "committed to a" 5 (Atomic.get result);
  (* The offer on b must be stale: a sender on b still blocks. *)
  check_int "no live receiver on b" 0 (Csp.Channel.waiting_receivers b)

let test_select_send_case () =
  let net = Csp.network () in
  let a = Csp.Channel.create net in
  let receiver = Testutil.spawn (fun () -> ignore (Csp.recv a)) in
  Testutil.eventually "receiver parked" (fun () ->
      Csp.Channel.waiting_receivers a = 1);
  let r = Csp.select [ Csp.send_case a 3 (fun () -> "sent") ] in
  Sync_platform.Process.join receiver;
  Alcotest.(check string) "send case ran" "sent" r

let test_guard_disables () =
  let net = Csp.network () in
  let a = Csp.Channel.create net in
  let b = Csp.Channel.create net in
  let sa = Testutil.spawn (fun () -> Csp.send a 1) in
  let sb = Testutil.spawn (fun () -> Csp.send b 2) in
  Testutil.eventually "both parked" (fun () ->
      Csp.Channel.waiting_senders a = 1 && Csp.Channel.waiting_senders b = 1);
  let r =
    Csp.select
      [ Csp.guard false (Csp.recv_case a (fun v -> v));
        Csp.recv_case b (fun v -> v) ]
  in
  check_int "only enabled case" 2 r;
  ignore (Csp.recv a);
  Sync_platform.Process.join sa;
  Sync_platform.Process.join sb

let test_all_guards_false () =
  let net = Csp.network () in
  let a : int Csp.Channel.t = Csp.Channel.create net in
  match Csp.select [ Csp.guard false (Csp.recv_case a (fun v -> v)) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_producer_consumer_pipeline () =
  let net = Csp.network () in
  let ch = Csp.Channel.create net in
  let out = Testutil.Tsqueue.create () in
  let producer () = for i = 1 to 50 do Csp.send ch i done in
  let consumer () =
    for _ = 1 to 50 do
      Testutil.Tsqueue.push out (Csp.recv ch)
    done
  in
  Testutil.run_all [ producer; consumer ];
  Alcotest.(check (list int))
    "in order"
    (List.init 50 (fun i -> i + 1))
    (Testutil.Tsqueue.drain out)

let test_select_stress_no_duplication () =
  (* Every sent value is received exactly once across two competing
     selecting receivers. *)
  let net = Csp.network () in
  let a = Csp.Channel.create net in
  let b = Csp.Channel.create net in
  let seen = Testutil.Tsqueue.create () in
  let n = 40 in
  let receiver () =
    for _ = 1 to n / 2 do
      let v =
        Csp.select [ Csp.recv_case a (fun v -> v); Csp.recv_case b (fun v -> v) ]
      in
      Testutil.Tsqueue.push seen v
    done
  in
  let sender_a () = for i = 0 to (n / 2) - 1 do Csp.send a i done in
  let sender_b () = for i = n / 2 to n - 1 do Csp.send b i done in
  Testutil.run_all [ receiver; receiver; sender_a; sender_b ];
  let got = List.sort compare (Testutil.Tsqueue.drain seen) in
  Alcotest.(check (list int)) "each value once" (List.init n Fun.id) got

let () =
  Alcotest.run "csp"
    [ ( "channels",
        [ Alcotest.test_case "rendezvous" `Quick test_rendezvous;
          Alcotest.test_case "send blocks" `Quick test_send_blocks_until_recv;
          Alcotest.test_case "fifo senders" `Quick test_fifo_senders;
          Alcotest.test_case "try operations" `Quick test_try_operations;
          Alcotest.test_case "pipeline" `Quick test_producer_consumer_pipeline
        ] );
      ( "select",
        [ Alcotest.test_case "ready case" `Quick test_select_ready_case;
          Alcotest.test_case "blocks then commits once" `Quick
            test_select_blocks_then_commits_once;
          Alcotest.test_case "send case" `Quick test_select_send_case;
          Alcotest.test_case "guard disables" `Quick test_guard_disables;
          Alcotest.test_case "all guards false" `Quick test_all_guards_false;
          Alcotest.test_case "stress no duplication" `Quick
            test_select_stress_no_duplication ] ) ]
