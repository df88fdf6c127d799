(* Direct tests for the TNode set implementations (List_set / Array_set),
   including property tests that cross-check them against each other and
   against a sorted-list model. *)

module Elt = Zmsq_pq.Elt

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

module type SET = Zmsq.Set_intf.SET

let impls =
  [
    ("list", (module Zmsq.List_set : SET));
    ("array", (module Zmsq.Array_set : SET));
  ]

let basics (module S : SET) () =
  let s = S.create () in
  check Alcotest.bool "empty" true (S.is_empty s);
  check Alcotest.bool "max none" true (Elt.is_none (S.max_elt s));
  check Alcotest.bool "min none" true (Elt.is_none (S.min_elt s));
  S.insert s 5;
  S.insert s 9;
  S.insert s 2;
  check Alcotest.int "size" 3 (S.size s);
  check Alcotest.int "max" 9 (S.max_elt s);
  check Alcotest.int "min" 2 (S.min_elt s);
  check Alcotest.int "remove_max" 9 (S.remove_max s);
  check Alcotest.int "remove_min" 2 (S.remove_min s);
  check Alcotest.int "last" 5 (S.remove_max s);
  check Alcotest.bool "empty again" true (S.is_empty s);
  check Alcotest.bool "remove_max empty" true (Elt.is_none (S.remove_max s));
  check Alcotest.bool "remove_min empty" true (Elt.is_none (S.remove_min s))

let take_top_sorted (module S : SET) () =
  let s = S.create () in
  List.iter (S.insert s) [ 3; 7; 1; 9; 5; 7 ];
  let top = S.take_top s 3 in
  check (Alcotest.array Alcotest.int) "top 3 descending" [| 9; 7; 7 |] top;
  check Alcotest.int "remaining" 3 (S.size s);
  check Alcotest.int "new max" 5 (S.max_elt s);
  (* over-asking returns what exists *)
  let rest = S.take_top s 10 in
  check (Alcotest.array Alcotest.int) "rest" [| 5; 3; 1 |] rest;
  check Alcotest.bool "drained" true (S.is_empty s)

let split_lower_halves (module S : SET) () =
  let s = S.create () in
  List.iter (S.insert s) [ 10; 20; 30; 40; 50 ];
  let lower = S.split_lower s in
  check Alcotest.int "lower half size" 2 (Array.length lower);
  check Alcotest.int "kept size" 3 (S.size s);
  let lower_l = List.sort compare (Array.to_list lower) in
  check (Alcotest.list Alcotest.int) "lower = two smallest" [ 10; 20 ] lower_l;
  check Alcotest.int "kept min" 30 (S.min_elt s)

let swap_contents_ok (module S : SET) () =
  let a = S.create () and b = S.create () in
  List.iter (S.insert a) [ 1; 2 ];
  List.iter (S.insert b) [ 7; 8; 9 ];
  S.swap_contents a b;
  check Alcotest.int "a size" 3 (S.size a);
  check Alcotest.int "b size" 2 (S.size b);
  check Alcotest.int "a max" 9 (S.max_elt a);
  check Alcotest.int "b max" 2 (S.max_elt b)

let replace_min_cases (module S : SET) () =
  (* singleton: e replaces the only element *)
  let s = S.create () in
  S.insert s 5;
  let dropped, new_min = S.replace_min s 8 in
  check Alcotest.int "dropped" 5 dropped;
  check Alcotest.int "new min" 8 new_min;
  check Alcotest.int "size unchanged" 1 (S.size s);
  check Alcotest.int "content" 8 (S.max_elt s);
  (* e becomes the new minimum *)
  let s = S.create () in
  List.iter (S.insert s) [ 10; 20; 2 ];
  let dropped, new_min = S.replace_min s 4 in
  check Alcotest.int "dropped min" 2 dropped;
  check Alcotest.int "e is new min" 4 new_min;
  (* e lands in the middle *)
  let s = S.create () in
  List.iter (S.insert s) [ 10; 20; 2 ];
  let dropped, new_min = S.replace_min s 15 in
  check Alcotest.int "dropped min 2" 2 dropped;
  check Alcotest.int "new min is old second-smallest" 10 new_min;
  check Alcotest.int "max intact" 20 (S.max_elt s);
  (* e becomes the new maximum *)
  let s = S.create () in
  List.iter (S.insert s) [ 10; 20; 2 ];
  let dropped, new_min = S.replace_min s 99 in
  check Alcotest.int "dropped min 3" 2 dropped;
  check Alcotest.int "new min 3" 10 new_min;
  check Alcotest.int "new max" 99 (S.max_elt s)

(* Model-based property: every operation sequence produces the same
   observable results on both implementations. *)
type op = Insert of int | Remove_max | Remove_min | Take_top of int | Replace_min of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> Insert k) (int_bound 1000));
        (2, return Remove_max);
        (1, return Remove_min);
        (1, map (fun n -> Take_top (1 + (n mod 8))) small_nat);
        (2, map (fun k -> Replace_min k) (int_bound 1000));
      ])

let show_op = function
  | Insert k -> Printf.sprintf "I%d" k
  | Remove_max -> "RMax"
  | Remove_min -> "RMin"
  | Take_top n -> Printf.sprintf "T%d" n
  | Replace_min k -> Printf.sprintf "RepMin%d" k

let run_ops (module S : SET) ops =
  let s = S.create () in
  let log = Buffer.create 64 in
  List.iter
    (fun op ->
      (match op with
      | Insert k -> S.insert s k
      | Remove_max -> Buffer.add_string log (Printf.sprintf "%d;" (S.remove_max s))
      | Remove_min -> Buffer.add_string log (Printf.sprintf "%d;" (S.remove_min s))
      | Take_top n ->
          Array.iter (fun e -> Buffer.add_string log (Printf.sprintf "%d," (e : int))) (S.take_top s n)
      | Replace_min k ->
          (* only valid on nonempty sets with k > min *)
          if (not (S.is_empty s)) && k > S.min_elt s then begin
            let dropped, new_min = S.replace_min s k in
            Buffer.add_string log (Printf.sprintf "r%d/%d;" dropped new_min)
          end);
      Buffer.add_string log (Printf.sprintf "[%d %d %d]" (S.size s) (S.max_elt s) (S.min_elt s)))
    ops;
  (* final contents, sorted *)
  let rec drain acc = if S.is_empty s then acc else drain (S.remove_max s :: acc) in
  Buffer.add_string log (String.concat ";" (List.map string_of_int (drain [])));
  Buffer.contents log

let prop_impls_agree =
  QCheck.Test.make ~name:"list and array sets observationally equal" ~count:500
    (QCheck.make ~print:(fun l -> String.concat " " (List.map show_op l)) (QCheck.Gen.list op_gen))
    (fun ops ->
      let reference = run_ops (module Zmsq.List_set) ops in
      reference = run_ops (module Zmsq.Array_set) ops)

let prop_replace_min_model (module S : SET) name =
  QCheck.Test.make ~name:(name ^ ": replace_min equals remove_min+insert") ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 30) (int_bound 500)) (int_range 501 1000))
    (fun (keys, e) ->
      keys <> []
      &&
      let s = S.create () in
      List.iter (S.insert s) keys;
      let model_min = List.fold_left min (List.hd keys) keys in
      let dropped, new_min = S.replace_min s e in
      let expected_contents = List.sort compare (e :: List.filter (fun _ -> true) keys) in
      (* remove one occurrence of the min from the model *)
      let rec remove_once x = function
        | [] -> []
        | y :: rest -> if y = x then rest else y :: remove_once x rest
      in
      let expected_contents = remove_once model_min expected_contents in
      let rec drain acc = if S.is_empty s then acc else drain (S.remove_max s :: acc) in
      dropped = model_min
      && new_min = List.hd expected_contents
      && drain [] = expected_contents)

(* The array set gives capacity back. A set filled past a split's
   threshold (2 * target_len + 1 = 145 by default) and then drained to a
   few elements does not keep its 256-slot array. A root that refills to
   a little under target_len and hands out batch + 1 = 49 elements per
   refill settles on one array instead of shrinking and regrowing it on
   every cycle (constant capacity means no reallocation: every resize
   changes it). *)
let array_capacity () =
  let module A = Zmsq.Array_set in
  let s = A.create () in
  for k = 1 to 145 do
    A.insert s k
  done;
  check Alcotest.int "grown to hold 145" 256 (A.capacity s);
  ignore (A.take_top s 139);
  check Alcotest.int "a few left" 6 (A.size s);
  check Alcotest.bool "capacity under 4x length" true (A.capacity s < 4 * A.size s);
  check Alcotest.int "max survives the trim" 6 (A.max_elt s);
  let s = A.create () in
  let next = ref 0 in
  let fill () =
    while A.size s < 64 do
      incr next;
      A.insert s (!next * 7919 mod 1000)
    done
  in
  fill ();
  ignore (A.take_top s 49);
  let settled = A.capacity s in
  for cycle = 1 to 20 do
    fill ();
    check Alcotest.int (Printf.sprintf "cycle %d: no regrow" cycle) settled (A.capacity s);
    ignore (A.take_top s 49);
    check Alcotest.int (Printf.sprintf "cycle %d: no trim" cycle) settled (A.capacity s)
  done

(* The array set sorts in place (quicksort, insertion sort on ranges of
   at most 16 elements). Check [take_top] and [split_lower] against a sorted-list
   reference at every size from 0 to 300, so both sides of the cutoff run,
   on four key patterns: random with duplicates, few distinct keys,
   ascending and descending. Each check covers the order returned, the
   contents left behind and their [max_elt]/[min_elt]. *)
let array_sort_reference () =
  let module A = Zmsq.Array_set in
  let module Rng = Zmsq_util.Rng in
  let rng = Rng.create ~seed:0x5047 () in
  let desc l = List.sort (fun a b -> compare b a) l in
  let ints = Alcotest.(list int) in
  let fill n =
    let key i =
      match n mod 4 with
      | 0 -> Rng.int rng (1 + (n / 2))
      | 1 -> Rng.int rng 3
      | 2 -> i
      | _ -> n - i
    in
    let keys = List.init n key in
    let s = A.create () in
    List.iter (A.insert s) keys;
    (s, desc keys)
  in
  let check_left what s want =
    check ints (what ^ ": contents left") want (desc (A.fold (fun acc e -> e :: acc) [] s));
    let first = match want with [] -> Elt.none | e :: _ -> e in
    let last = List.fold_left (fun _ e -> e) Elt.none want in
    check Alcotest.int (what ^ ": max_elt") first (A.max_elt s);
    check Alcotest.int (what ^ ": min_elt") last (A.min_elt s)
  in
  let rec split_at k = function
    | e :: rest when k > 0 ->
        let a, b = split_at (k - 1) rest in
        (e :: a, b)
    | l -> ([], l)
  in
  for n = 0 to 300 do
    let s, sorted = fill n in
    let k = Rng.int rng (n + 2) in
    let top = A.take_top s k in
    let want_top, want_left = split_at k sorted in
    let what = Printf.sprintf "n=%d take_top %d" n k in
    check ints (what ^ ": order") want_top (Array.to_list top);
    check_left what s want_left;
    let s, sorted = fill n in
    let lower = A.split_lower s in
    let want_kept, want_lower = split_at (n - (n / 2)) sorted in
    let what = Printf.sprintf "n=%d split_lower" n in
    check ints (what ^ ": order") want_lower (Array.to_list lower);
    check_left what s want_kept
  done

let per_impl =
  List.concat_map
    (fun (name, m) ->
      [
        (name ^ " basics", `Quick, basics m);
        (name ^ " take_top", `Quick, take_top_sorted m);
        (name ^ " split_lower", `Quick, split_lower_halves m);
        (name ^ " swap_contents", `Quick, swap_contents_ok m);
        (name ^ " replace_min cases", `Quick, replace_min_cases m);
        qtest (prop_replace_min_model m name);
      ])
    impls

let suite =
  per_impl
  @ [
      ("array capacity", `Quick, array_capacity);
      ("array sort vs sorted list", `Quick, array_sort_reference);
      qtest prop_impls_agree;
    ]
