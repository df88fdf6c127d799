(** Sorted singly-linked list set — the paper's default TNode set, kept in
    descending order so the maximum is the head and [take_top] is O(n).
    Here it is the differential reference for {!Array_set} (the library
    default) and the set behind the figures' "zmsq" columns. *)

module Elt = Zmsq_pq.Elt

type t = { mutable items : Elt.t list; mutable len : int }

let name = "list"

let create () = { items = []; len = 0 }

let size t = t.len
let is_empty t = t.len = 0

let max_elt t = match t.items with [] -> Elt.none | x :: _ -> x

let min_elt t =
  let rec last = function [] -> Elt.none | [ x ] -> x | _ :: rest -> last rest in
  last t.items

let insert t e =
  let rec place = function
    | [] -> [ e ]
    | x :: _ as rest when e >= x -> e :: rest
    | x :: rest -> x :: place rest
  in
  t.items <- place t.items;
  t.len <- t.len + 1

let remove_max t =
  match t.items with
  | [] -> Elt.none
  | x :: rest ->
      t.items <- rest;
      t.len <- t.len - 1;
      x

let remove_min t =
  match t.items with
  | [] -> Elt.none
  | items ->
      let rec drop_last = function
        | [ x ] -> ([], x)
        | x :: rest ->
            let rest', last = drop_last rest in
            (x :: rest', last)
        | [] -> assert false
      in
      let items', last = drop_last items in
      t.items <- items';
      t.len <- t.len - 1;
      last

(* One traversal: place [e] at its sorted position and drop the final
   element (the old minimum). [prev_kept] tracks the element preceding the
   cursor in the *new* list, so the new minimum falls out of the walk. *)
let replace_min t e =
  let rec go placed prev_kept = function
    | [] -> assert false
    | [ last ] ->
        if placed then ([], last, prev_kept) (* drop the old min *)
        else ([ e ], last, e) (* e itself becomes the minimum *)
    | x :: rest ->
        if (not placed) && e >= x then begin
          let tail, dropped, new_min = go true e (x :: rest) in
          (e :: tail, dropped, new_min)
        end
        else begin
          let tail, dropped, new_min = go placed x rest in
          (x :: tail, dropped, new_min)
        end
  in
  match t.items with
  | [] -> invalid_arg "List_set.replace_min: empty"
  | items ->
      let items', dropped, new_min = go false Elt.none items in
      t.items <- items';
      (dropped, new_min)

let take_top t n =
  let n = min n t.len in
  let rec split i = function
    | rest when i = n -> ([], rest)
    | x :: rest ->
        let top, keep = split (i + 1) rest in
        (x :: top, keep)
    | [] -> assert false
  in
  let top, keep = split 0 t.items in
  t.items <- keep;
  t.len <- t.len - n;
  Array.of_list top

let split_lower t =
  let keep_n = t.len - (t.len / 2) in
  let rec split i = function
    | rest when i = keep_n -> ([], rest)
    | x :: rest ->
        let keep, lower = split (i + 1) rest in
        (x :: keep, lower)
    | [] -> assert false
  in
  let keep, lower = split 0 t.items in
  t.items <- keep;
  let dropped = t.len - keep_n in
  t.len <- keep_n;
  let arr = Array.of_list lower in
  assert (Array.length arr = dropped);
  arr

let swap_contents a b =
  let items = a.items and len = a.len in
  a.items <- b.items;
  a.len <- b.len;
  b.items <- items;
  b.len <- len

let fold f acc t = List.fold_left f acc t.items
