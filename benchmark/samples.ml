(* Latency samples in a preallocated int array, summarized by exact
   nearest-rank percentiles.

   [add] never allocates, so a recording domain can call it on its hot
   path. Samples past the capacity are not stored; every percentile is
   exact over the samples that were kept. *)

type t = { data : int array; mutable n : int }

let create capacity = { data = Array.make (max 1 capacity) 0; n = 0 }

let add t v =
  if t.n < Array.length t.data then begin
    Array.unsafe_set t.data t.n v;
    t.n <- t.n + 1
  end

let count t = t.n
let clear t = t.n <- 0

let to_array t = Array.sub t.data 0 t.n

let sort_concat arrays =
  let a = Array.concat arrays in
  Array.sort Int.compare a;
  a

let sorted_of_list ts = sort_concat (List.map to_array ts)

(* Nearest rank: the smallest sample with at least [p]% of all samples at
   or below it, i.e. element [ceil (p/100 * n)] (1-based) of the sorted
   samples. [p] is in (0, 100]. *)
let rank ~n p =
  if n = 0 then invalid_arg "Samples.rank: no samples";
  if p <= 0.0 || p > 100.0 then invalid_arg "Samples.rank: p outside (0, 100]";
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n -. 1e-9)) in
  max 1 (min n r)

let percentile sorted p = sorted.(rank ~n:(Array.length sorted) p - 1)

(* Samples strictly above the [p]th percentile's value. *)
let beyond sorted p =
  let v = percentile sorted p in
  let n = Array.length sorted in
  (* First index holding a value > v, by binary search. *)
  let lo = ref (rank ~n p - 1) and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sorted.(mid) > v then hi := mid else lo := mid + 1
  done;
  n - !lo

type summary = {
  n : int;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
  max : int;
  beyond_p90 : int;
  beyond_p99 : int;
  beyond_p999 : int;
}

let summarize_sorted sorted =
  let n = Array.length sorted in
  {
    n;
    p50 = percentile sorted 50.0;
    p90 = percentile sorted 90.0;
    p99 = percentile sorted 99.0;
    p999 = percentile sorted 99.9;
    max = sorted.(n - 1);
    beyond_p90 = beyond sorted 90.0;
    beyond_p99 = beyond sorted 99.0;
    beyond_p999 = beyond sorted 99.9;
  }

let summarize ts = summarize_sorted (sorted_of_list ts)

(* Median and quartiles of a handful of float readings (segments, solves,
   repeated runs), with the same nearest-rank rule. *)
let float_quantile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a.(rank ~n:(Array.length a) p - 1)

let median xs = float_quantile xs 50.0

(* Quartiles as Python's [statistics.quantiles xs ~n:4] (its default
   "exclusive" method) computes them, so that [--repeat] reports the same
   spread a Python consumer of the results would see. Needs >= 2 values. *)
let quartiles xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n < 2 then invalid_arg "Samples.quartiles: need at least 2 values";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
  in
  (q 1, q 2, q 3)
