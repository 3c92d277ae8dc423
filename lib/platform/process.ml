type backend = [ `Thread | `Domain | `Det ]

type handle = T of Thread.t | D of unit Domain.t | F of Detrt.task

type t = { handle : handle; error : exn option ref; error_mutex : Mutex.t }

let default_backend : backend ref = ref `Thread

let mode () : backend = if Detrt.active () then `Det else !default_backend

let spawn ?name ?backend f =
  let backend =
    (* Inside a deterministic run every process must be a virtual task:
       a real thread would escape the controlled schedule (and a join on
       it from a fiber would wedge the only carrier thread). *)
    if Detrt.active () then `Det
    else Option.value backend ~default:!default_backend
  in
  let error = ref None in
  let error_mutex = Mutex.create () in
  let body () =
    try f ()
    with e ->
      Mutex.lock error_mutex;
      error := Some e;
      Mutex.unlock error_mutex
  in
  let handle =
    match backend with
    | `Thread -> T (Thread.create body ())
    | `Domain -> D (Domain.spawn body)
    | `Det -> F (Detrt.spawn ?name body)
  in
  { handle; error; error_mutex }

let join t =
  (match t.handle with
  | T th -> Thread.join th
  | D d -> Domain.join d
  | F task -> Detrt.join task);
  Mutex.lock t.error_mutex;
  let err = !(t.error) in
  Mutex.unlock t.error_mutex;
  match err with None -> () | Some e -> raise e

let run_all ?backend fs =
  let ts = List.map (fun f -> spawn ?backend f) fs in
  let first_error = ref None in
  List.iter
    (fun t ->
      try join t
      with e -> if Option.is_none !first_error then first_error := Some e)
    ts;
  match !first_error with None -> () | Some e -> raise e

let parallelism_available () = Domain.recommended_domain_count ()
