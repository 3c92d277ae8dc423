(* The two largest E17 certifications, complete DPOR over the monitor
   readers-writers solution as written (every class serves the reader
   first) and with its release-site signal reversed (every class serves
   the writer first): about 20 s each. They are their own executable so
   that they run beside test_dpor instead of after it; the remaining
   E17 verdicts and the comment on what they show are in test_dpor. *)

open Dpor_pins

let () =
  ignore (Unix.nice 19);
  let writer_first = "expected reader-first, got writer-first" in
  Alcotest.run "dpor-rw-mon"
    [ ( "e17-verdicts",
        [ Alcotest.test_case "rw-mon pass" `Slow
            (certify "rw-mon" (1124352, 2713376, 0));
          Alcotest.test_case "rw-mon-flip all fail" `Slow
            (certify "rw-mon-flip" (958464, 1853216, 0) ~affix:writer_first)
        ] ) ]
