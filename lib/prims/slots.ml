(* Per-lock thread-to-slot registry for static-process lock protocols:
   the bakery lock and semaphore, MCS and CLH index their registers by a
   small slot number, and a registry maps each real thread that touches
   one lock to its own slot, first come first served. It is ordinary
   bookkeeping outside the protocol (guarded by a stdlib mutex the
   protocol never takes while contending), so it does not launder an
   unsupported primitive into a restricted class. The [size + 1]-th
   distinct thread fails with "<owner>: more than <size> distinct
   threads on one <what>". *)

type t = {
  m : Stdlib.Mutex.t;
  tbl : (int, int) Hashtbl.t;
  mutable next : int;
  size : int;
  owner : string;
  what : string;
}

let create ~size ~owner ~what =
  { m = Stdlib.Mutex.create (); tbl = Hashtbl.create 16; next = 0; size; owner;
    what }

let self r =
  let tid = Thread.id (Thread.self ()) in
  Stdlib.Mutex.lock r.m;
  let s =
    match Hashtbl.find_opt r.tbl tid with
    | Some s -> s
    | None ->
      if r.next >= r.size then begin
        Stdlib.Mutex.unlock r.m;
        failwith
          (Printf.sprintf "%s: more than %d distinct threads on one %s" r.owner
             r.size r.what)
      end;
      let s = r.next in
      r.next <- s + 1;
      Hashtbl.add r.tbl tid s;
      s
  in
  Stdlib.Mutex.unlock r.m;
  s
