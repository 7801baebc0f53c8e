type t = {
  name : string;
  bounds : int array;  (* strictly increasing upper bounds *)
  counts : int Atomic.t array;
      (* length = Array.length bounds + 1; last = overflow *)
  total : int Atomic.t;
  sum : int Atomic.t;
}

let default_bounds = [| 100; 250; 500; 1_000; 2_500; 5_000; 10_000; 25_000 |]

let make ?(bounds = default_bounds) name =
  if Array.length bounds = 0 then invalid_arg "Histogram.make: no buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Histogram.make: bounds must be strictly increasing")
    bounds;
  {
    name;
    bounds = Array.copy bounds;
    counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
    total = Atomic.make 0;
    sum = Atomic.make 0;
  }

let name t = t.name

(* Binary search for the first bucket whose bound is >= v; values above
   the last bound land in the trailing overflow bucket. *)
let bucket_index t v =
  let n = Array.length t.bounds in
  if v > t.bounds.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe t v =
  Atomic.incr t.counts.(bucket_index t v);
  Atomic.incr t.total;
  ignore (Atomic.fetch_and_add t.sum v)

(* Plain per-bucket tallies in front of a histogram, owned by one
   domain: [note] is the binary search and two field bumps, and
   [settle] moves the tallies in with one atomic add per nonzero
   bucket, plus total and sum. *)
type pending = {
  target : t;
  tally : int array;  (* by bucket, like [counts] *)
  mutable n : int;
  mutable s : int;
}

let pending target =
  { target; tally = Array.make (Array.length target.counts) 0; n = 0; s = 0 }

let note p v =
  let i = bucket_index p.target v in
  p.tally.(i) <- p.tally.(i) + 1;
  p.n <- p.n + 1;
  p.s <- p.s + v

let settle p =
  if p.n <> 0 then begin
    let t = p.target in
    for i = 0 to Array.length p.tally - 1 do
      let k = p.tally.(i) in
      if k <> 0 then begin
        p.tally.(i) <- 0;
        ignore (Atomic.fetch_and_add t.counts.(i) k)
      end
    done;
    ignore (Atomic.fetch_and_add t.total p.n);
    ignore (Atomic.fetch_and_add t.sum p.s);
    p.n <- 0;
    p.s <- 0
  end

let total t = Atomic.get t.total
let sum t = Atomic.get t.sum

(* Quantile by linear interpolation *within* the containing bucket.
   Returning a bucket's upper bound would overstate the quantile by up
   to one bucket width; instead the rank's position inside the bucket
   is mapped linearly onto the bucket's value range [lo, hi).  The
   first bucket's lower edge is 0; the overflow bucket has no upper
   edge, so ranks landing there report the last finite bound (a
   conservative lower bound on the true value). *)
let quantile t q =
  let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
  let counts = Array.map Atomic.get t.counts in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let n = Array.length t.bounds in
    let target = q *. float_of_int total in
    let rec go i acc =
      if i >= n then float_of_int t.bounds.(n - 1)
      else begin
        let c = counts.(i) in
        let acc' = acc + c in
        if c > 0 && float_of_int acc' >= target then begin
          let lo = if i = 0 then 0.0 else float_of_int t.bounds.(i - 1) in
          let hi = float_of_int t.bounds.(i) in
          let frac = (target -. float_of_int acc) /. float_of_int c in
          let frac = if frac < 0.0 then 0.0 else frac in
          lo +. ((hi -. lo) *. frac)
        end
        else go (i + 1) acc'
      end
    in
    go 0 0
  end
let bounds t = Array.copy t.bounds
let counts t = Array.map Atomic.get t.counts

let reset t =
  Array.iter (fun c -> Atomic.set c 0) t.counts;
  Atomic.set t.total 0;
  Atomic.set t.sum 0
