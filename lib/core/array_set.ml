(** Unsorted array set — the paper's "(array)" TNode set variant and the
    default set. No per-element allocation and a small cache footprint:
    ordered operations pay a scan, or a sort in [take_top] (every refill)
    and [split_lower] (every split), which is cheap for the small sets
    ZMSQ maintains (about [target_len] elements, at most [2 * target_len]
    before a split). The sort works on the used prefix of [data] in
    place: an [int]-specialised quicksort with insertion sort on ranges
    of at most [small_sort] elements, no copy, no comparison closure, no
    allocation.

    The backing array doubles when full and gives capacity back when a set
    shrinks well below it, so a long run does not leave every node holding
    the largest array it ever needed. [split_lower] trims a set that keeps
    under 1/[split_trim] of its array; [take_top] only under
    1/[take_trim]. The wider [take_top] margin is hysteresis: the root
    refills to about [target_len] and gives up to [batch + 1] elements per
    refill, and a tighter rule would reallocate on every cycle. *)

module Elt = Zmsq_pq.Elt

type t = { mutable data : Elt.t array; mutable len : int }

let name = "array"

let min_capacity = 16
let split_trim = 4
let take_trim = 8

let create () = { data = Array.make min_capacity Elt.none; len = 0 }

let size t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.data

let resize t cap =
  let fresh = Array.make cap Elt.none in
  Array.blit t.data 0 fresh 0 t.len;
  t.data <- fresh

(* Give capacity back: when the set uses under [1/ratio] of its array,
   reallocate at twice its length (never below [min_capacity]). *)
let trim t ratio =
  let cap = Array.length t.data in
  if cap > min_capacity && t.len * ratio < cap then resize t (max min_capacity (2 * t.len))

let insert t e =
  if t.len = Array.length t.data then resize t (2 * t.len);
  t.data.(t.len) <- e;
  t.len <- t.len + 1

let max_index t =
  if t.len = 0 then -1
  else begin
    let best = ref 0 in
    for i = 1 to t.len - 1 do
      if t.data.(i) > t.data.(!best) then best := i
    done;
    !best
  end

let min_index t =
  if t.len = 0 then -1
  else begin
    let best = ref 0 in
    for i = 1 to t.len - 1 do
      if t.data.(i) < t.data.(!best) then best := i
    done;
    !best
  end

let max_elt t =
  let i = max_index t in
  if i < 0 then Elt.none else t.data.(i)

let min_elt t =
  let i = min_index t in
  if i < 0 then Elt.none else t.data.(i)

let remove_at t i =
  let e = t.data.(i) in
  t.len <- t.len - 1;
  t.data.(i) <- t.data.(t.len);
  t.data.(t.len) <- Elt.none;
  e

let remove_max t =
  let i = max_index t in
  if i < 0 then Elt.none else remove_at t i

let remove_min t =
  let i = min_index t in
  if i < 0 then Elt.none else remove_at t i

let replace_min t e =
  let i = min_index t in
  if i < 0 then invalid_arg "Array_set.replace_min: empty";
  let dropped = t.data.(i) in
  t.data.(i) <- e;
  (dropped, min_elt t)

let small_sort = 16

let swap (a : Elt.t array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let insertion_sort (a : Elt.t array) lo hi =
  for i = lo + 1 to hi do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) < v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* Sort [a.(lo..hi)] descending in place: quicksort around a median of
   three with a Hoare partition (equal keys split evenly), insertion sort
   on ranges of at most [small_sort] elements. The smaller side recurses and the larger
   one is a tail call, so the stack stays O(log n). *)
let rec quicksort (a : Elt.t array) lo hi =
  if hi - lo < small_sort then insertion_sort a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if a.(mid) > a.(lo) then swap a mid lo;
    if a.(hi) > a.(lo) then swap a hi lo;
    if a.(hi) > a.(mid) then swap a hi mid;
    let p = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) > p do
        incr i
      done;
      while a.(!j) < p do
        decr j
      done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    if !j - lo < hi - !i then begin
      quicksort a lo !j;
      quicksort a !i hi
    end
    else begin
      quicksort a !i hi;
      quicksort a lo !j
    end
  end

(* Sort the used prefix descending. *)
let sort_desc t = quicksort t.data 0 (t.len - 1)

let take_top t n =
  let n = min n t.len in
  if n = 0 then [||]
  else begin
    sort_desc t;
    let top = Array.sub t.data 0 n in
    let remaining = t.len - n in
    Array.blit t.data n t.data 0 remaining;
    Array.fill t.data remaining n Elt.none;
    t.len <- remaining;
    trim t take_trim;
    top
  end

let split_lower t =
  let n = t.len / 2 in
  if n = 0 then [||]
  else begin
    sort_desc t;
    let keep = t.len - n in
    let lower = Array.sub t.data keep n in
    Array.fill t.data keep n Elt.none;
    t.len <- keep;
    trim t split_trim;
    lower
  end

let swap_contents a b =
  let data = a.data and len = a.len in
  a.data <- b.data;
  a.len <- b.len;
  b.data <- data;
  b.len <- len

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc
