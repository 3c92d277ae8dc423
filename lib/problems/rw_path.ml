(** Readers-writers with path expressions — the paper's own Figures.

    - {!Fig1} is the Figure 1 readers-priority solution, transcribed
      {e faithfully, bug included}: footnote 3 observes that a second
      writer can overtake a reader that arrived while the first writer
      was still writing, so the solution does not actually implement the
      Courtois readers-priority specification. The scenario driver in
      {!Rw_harness} reproduces that anomaly deterministically (E1).
    - {!Fig2} is the Figure 2 writers-priority solution.
    - {!Plain} is [path {read} , write end]: the exclusion constraint
      alone, no priority guarantee — what the mechanism expresses without
      synchronization procedures.

    The extra operations ([writeattempt], [requestread], ...) are the
    paper's {e synchronization procedures}: gates with empty bodies (or
    bodies that only invoke the next gate), introduced because paths
    cannot state priority directly. Their nesting is what encodes the
    priorities — and what entangles the constraints (Section 5.1.2). *)

open Sync_taxonomy
module P = Sync_pathexpr.Pathexpr

module Fig1 = struct
  type t = { sys : P.t; res_read : pid:int -> int; res_write : pid:int -> unit }

  let mechanism = "pathexpr"

  let policy = Rw_intf.Readers_priority

  let paths =
    "path writeattempt end \
     path { requestread } , requestwrite end \
     path { read } , (openwrite ; write) end"

  (* parsed once; [create] only compiles *)
  let spec = Sync_pathexpr.Parser.parse paths

  let create ~read ~write =
    { sys = P.compile spec; res_read = read; res_write = write }

  (* READ = begin requestread end; requestread = begin read end *)
  let read t ~pid =
    P.run t.sys "requestread" (fun () ->
        P.run t.sys "read" (fun () -> t.res_read ~pid))

  (* WRITE = begin writeattempt ; write end;
     writeattempt = begin requestwrite end;
     requestwrite = begin openwrite end

     Abort safety: the two top-level runs are SEQUENCED, so once
     [openwrite] has committed, the paths owe one [write]; if the second
     run aborts, that obligation must be retired with an empty write or
     the [(openwrite ; write)] sequence never drains. Nested runs (the
     attempt chain) need nothing: an inner abort unwinds each enclosing
     run's own rollback. The retire run is masked — it is recovery, not
     an injection point. *)
  let write t ~pid =
    P.run t.sys "writeattempt" (fun () ->
        P.run t.sys "requestwrite" (fun () ->
            P.run t.sys "openwrite" (fun () -> ())));
    match P.run t.sys "write" (fun () -> t.res_write ~pid) with
    | () -> ()
    | exception e ->
      Sync_platform.Fault.mask (fun () ->
          P.run t.sys "write" (fun () -> ()));
      raise e

  let stop _ = ()

  let meta =
    Meta.make ~mechanism ~problem:"readers-writers"
      ~variant:"fig1-readers-priority"
      ~fragments:
        [ ("rw-exclusion",
           [ "path"; "{read},(openwrite;write)"; "end" ]);
          ("rw-priority",
           [ "path"; "writeattempt"; "end"; "path";
             "{requestread},requestwrite"; "end"; "requestread=begin read";
             "requestwrite=begin openwrite"; "writeattempt=begin requestwrite"
           ]) ]
      ~info_access:
        [ (Info.Request_type, Meta.Direct); (Info.Sync_state, Meta.Indirect) ]
      ~sync_procedures:
        [ "writeattempt"; "requestread"; "requestwrite"; "openwrite" ]
      ~separation:Meta.Blended ()
end

module Fig2 = struct
  type t = { sys : P.t; res_read : pid:int -> int; res_write : pid:int -> unit }

  let mechanism = "pathexpr"

  let policy = Rw_intf.Writers_priority

  let paths =
    "path readattempt end \
     path requestread , { requestwrite } end \
     path { openread ; read } , write end"

  (* parsed once; [create] only compiles *)
  let spec = Sync_pathexpr.Parser.parse paths

  let create ~read ~write =
    { sys = P.compile spec; res_read = read; res_write = write }

  (* READ = begin readattempt ; read end;
     readattempt = begin requestread end;
     requestread = begin openread end

     Abort safety: as in {!Fig1.write} — [openread] commits an entry into
     [{ openread ; read }], so an abort of the sequenced second run must
     retire the owed [read] (masked) or the group never drains and
     writers starve. The paper's synchronization procedures entangle not
     just the constraints (Section 5.1.2) but the abort handling too. *)
  let read t ~pid =
    P.run t.sys "readattempt" (fun () ->
        P.run t.sys "requestread" (fun () ->
            P.run t.sys "openread" (fun () -> ())));
    match P.run t.sys "read" (fun () -> t.res_read ~pid) with
    | v -> v
    | exception e ->
      Sync_platform.Fault.mask (fun () ->
          ignore (P.run t.sys "read" (fun () -> 0)));
      raise e

  (* WRITE = begin requestwrite end; requestwrite = begin write end *)
  let write t ~pid =
    P.run t.sys "requestwrite" (fun () ->
        P.run t.sys "write" (fun () -> t.res_write ~pid))

  let stop _ = ()

  let meta =
    Meta.make ~mechanism ~problem:"readers-writers"
      ~variant:"fig2-writers-priority"
      ~fragments:
        [ ("rw-exclusion",
           [ "path"; "{openread;read},write"; "end" ]);
          ("rw-priority",
           [ "path"; "readattempt"; "end"; "path";
             "requestread,{requestwrite}"; "end"; "readattempt=begin \
              requestread"; "requestread=begin openread";
             "requestwrite=begin write" ]) ]
      ~info_access:
        [ (Info.Request_type, Meta.Direct); (Info.Sync_state, Meta.Indirect) ]
      ~sync_procedures:[ "readattempt"; "requestread"; "openread" ]
      ~separation:Meta.Blended ()
end

module Plain = struct
  type t = { sys : P.t; res_read : pid:int -> int; res_write : pid:int -> unit }

  let mechanism = "pathexpr"

  let policy = Rw_intf.No_priority

  let paths = "path { read } , write end"

  (* parsed once; [create] only compiles *)
  let spec = Sync_pathexpr.Parser.parse paths

  let create ~read ~write =
    { sys = P.compile spec; res_read = read; res_write = write }

  let read t ~pid = P.run t.sys "read" (fun () -> t.res_read ~pid)

  let write t ~pid = P.run t.sys "write" (fun () -> t.res_write ~pid)

  let stop _ = ()

  let meta =
    Meta.make ~mechanism ~problem:"readers-writers" ~variant:"no-priority"
      ~fragments:
        [ ("rw-exclusion", [ "path"; "{read},write"; "end" ]);
          ("rw-priority", []) ]
      ~info_access:
        [ (Info.Request_type, Meta.Direct); (Info.Sync_state, Meta.Indirect) ]
      ~separation:Meta.Enforced ()
end
