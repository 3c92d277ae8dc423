type t = {
  sub_bits : int;
  sub : int;  (* 1 lsl sub_bits: linear region size / sub-buckets per power *)
  counts : int array;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
  sum : float array;
      (* one element: a float field of this mixed record would be boxed,
         and every [record] would allocate a fresh box *)
}

(* Bucket layout: indices [0, sub) are exact values; above that, each
   power-of-two range [2^h, 2^(h+1)) with h >= sub_bits is split into
   [sub] linear sub-buckets of width 2^(h - sub_bits). The highest
   representable value is max_int (h = 61 on 64-bit OCaml), so the array
   size is sub * (63 - sub_bits) buckets — ~1.9k ints at sub_bits = 5. *)
let size ~sub_bits ~sub = sub * (63 - sub_bits)

let create ?(sub_bits = 5) () =
  if sub_bits < 1 || sub_bits > 10 then
    invalid_arg "Histogram.create: sub_bits must be in 1..10";
  let sub = 1 lsl sub_bits in
  { sub_bits; sub; counts = Array.make (size ~sub_bits ~sub) 0; total = 0;
    min_v = max_int; max_v = 0; sum = [| 0.0 |] }

let msb v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then begin r := !r + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin r := !r + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin r := !r + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin r := !r + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin r := !r + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then incr r;
  !r

let index t v =
  if v < t.sub then v
  else
    let e = msb v - t.sub_bits in
    t.sub + (e * t.sub) + ((v lsr e) - t.sub)

(* Inclusive value range of bucket [i]. *)
let bounds t i =
  if i < t.sub then (i, i)
  else
    let e = (i - t.sub) / t.sub and m = (i - t.sub) mod t.sub in
    let lo = (t.sub + m) lsl e in
    (lo, lo + (1 lsl e) - 1)

let record_n t v n =
  if n < 0 then invalid_arg "Histogram.record_n: negative multiplicity";
  if n > 0 then begin
    let v = if v < 0 then 0 else v in
    let i = index t v in
    t.counts.(i) <- t.counts.(i) + n;
    t.total <- t.total + n;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    t.sum.(0) <- t.sum.(0) +. (float_of_int v *. float_of_int n)
  end

let record t v = record_n t v 1

let count t = t.total

let min_value t = if t.total = 0 then 0 else t.min_v

let max_value t = t.max_v

let mean t = if t.total = 0 then 0.0 else t.sum.(0) /. float_of_int t.total

let quantile t q =
  if t.total = 0 then 0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank =
      (* ceil(q * total), clamped into [1, total] *)
      let r = int_of_float (Float.ceil (q *. float_of_int t.total)) in
      max 1 (min t.total r)
    in
    let i = ref 0 and seen = ref 0 in
    while !seen < rank do
      seen := !seen + t.counts.(!i);
      incr i
    done;
    let _, hi = bounds t (!i - 1) in
    max t.min_v (min t.max_v hi)
  end

let merge_into ~into src =
  if into.sub_bits <> src.sub_bits then
    invalid_arg "Histogram.merge_into: precision mismatch";
  Array.iteri
    (fun i n -> if n > 0 then into.counts.(i) <- into.counts.(i) + n)
    src.counts;
  into.total <- into.total + src.total;
  if src.total > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v;
    into.sum.(0) <- into.sum.(0) +. src.sum.(0)
  end

let copy t =
  { t with counts = Array.copy t.counts; sum = Array.copy t.sum }

let merge a b =
  let t = copy a in
  merge_into ~into:t b;
  t

let nonempty_buckets t =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then begin
      let lo, hi = bounds t i in
      acc := (lo, hi, t.counts.(i)) :: !acc
    end
  done;
  !acc
