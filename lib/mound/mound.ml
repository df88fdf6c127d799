module Rng = Zmsq_util.Rng
module Lock = Zmsq_sync.Lock.Tatas
module Elt = Zmsq_pq.Elt

(* One tree node: a sorted (descending) list whose head is the node's
   maximum, cached in an atomic so traversals need no lock. *)
(* lint: unpadded max is co-touched with the node lock; node-granular contention dominates *)
type tnode = { lock : Lock.t; mutable list : Elt.t list; max : Elt.t Atomic.t }

let fresh_tnode () = { lock = Lock.create (); list = []; max = Atomic.make Elt.none }

let max_levels = 30

type t = {
  levels : tnode array Atomic.t array; (* lint: unpadded levels.(i) holds 2^i nodes; read-mostly, written under expand_mu *)
  leaf_level : int Atomic.t; (* lint: unpadded read-mostly; written only under expand_mu *)
  expand_mu : Mutex.t;
  len : int Atomic.t; (* lint: unpadded element count; hot FAA accepted, perf-CI gated *)
  attempts_per_level : int;
}

type handle = { q : t; rng : Rng.t }

let name = "mound"
let exact_emptiness = true

let handle_seed = Atomic.make 0x4D0D

let create ?(initial_levels = 4) () =
  if initial_levels < 1 || initial_levels > max_levels then invalid_arg "Mound.create";
  let levels = Array.init max_levels (fun _ -> Atomic.make [||]) in
  for l = 0 to initial_levels - 1 do
    Atomic.set levels.(l) (Array.init (1 lsl l) (fun _ -> fresh_tnode ()))
  done;
  {
    levels;
    leaf_level = Atomic.make (initial_levels - 1);
    expand_mu = Mutex.create ();
    len = Atomic.make 0;
    attempts_per_level = 8;
  }

let register q = { q; rng = Rng.create ~seed:(Atomic.fetch_and_add handle_seed 0x9E3779B9) () }
let unregister _ = ()

let length q = Atomic.get q.len

let node_at q level slot = (Atomic.get q.levels.(level)).(slot)

let expand q observed_leaf =
  Mutex.lock q.expand_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock q.expand_mu)
    (fun () ->
      if Atomic.get q.leaf_level = observed_leaf then begin
        let next = observed_leaf + 1 in
        if next >= max_levels then failwith "Mound: tree height limit reached";
        Atomic.set q.levels.(next) (Array.init (1 lsl next) (fun _ -> fresh_tnode ()));
        Atomic.set q.leaf_level next
      end)

(* Binary search on the path from (level, slot) to the root for the deepest
   node N with N.max <= e; the parent of N (if any) has parent.max > e.
   Reads are optimistic; the caller re-validates under locks. *)
let search_path q level slot e =
  let rec go level slot =
    if level = 0 then (0, 0)
    else begin
      let parent_slot = slot / 2 in
      let parent = node_at q (level - 1) parent_slot in
      if Atomic.get parent.max <= e then go (level - 1) parent_slot else (level, slot)
    end
  in
  go level slot

let insert_at q level slot e =
  let node = node_at q level slot in
  if level = 0 then begin
    Lock.acquire node.lock;
    (* The root accepts any key as a (possibly new) head. *)
    if Atomic.get node.max <= e then begin
      node.list <- e :: node.list;
      Atomic.set node.max e;
      Lock.release node.lock;
      true
    end
    else begin
      Lock.release node.lock;
      false
    end
  end
  else begin
    let parent = node_at q (level - 1) (slot / 2) in
    Lock.acquire parent.lock;
    Lock.acquire node.lock;
    let ok = Atomic.get node.max <= e && Atomic.get parent.max > e in
    if ok then begin
      node.list <- e :: node.list;
      Atomic.set node.max e
    end;
    Lock.release node.lock;
    Lock.release parent.lock;
    ok
  end

let insert h e =
  if Elt.is_none e then invalid_arg "Mound.insert: none";
  let q = h.q in
  let rec attempt () =
    let leaf = Atomic.get q.leaf_level in
    let width = 1 lsl leaf in
    let rec probe tries =
      if tries = 0 then None
      else begin
        let slot = Rng.int h.rng width in
        let node = node_at q leaf slot in
        if Atomic.get node.max <= e then Some slot else probe (tries - 1)
      end
    in
    match probe (max q.attempts_per_level (leaf + 1)) with
    | None ->
        expand q leaf;
        attempt ()
    | Some slot ->
        let level, slot = search_path q leaf slot e in
        if insert_at q level slot e then Atomic.incr q.len else attempt ()
  in
  attempt ()

let head_or_none list = match list with [] -> Elt.none | x :: _ -> x

(* Restore the invariant downward from (level, slot), whose lock is held:
   while a child's head exceeds ours, swap entire lists with the larger
   child and continue there. Children are locked before comparing, as a
   concurrent insertion could otherwise slip a larger key in. *)
let rec moundify q level slot node =
  let leaf = Atomic.get q.leaf_level in
  if level >= leaf then Lock.release node.lock
  else begin
    let left = node_at q (level + 1) (2 * slot) in
    let right = node_at q (level + 1) ((2 * slot) + 1) in
    Lock.acquire left.lock;
    Lock.acquire right.lock;
    let lmax = head_or_none left.list and rmax = head_or_none right.list in
    let my = head_or_none node.list in
    if lmax <= my && rmax <= my then begin
      Lock.release right.lock;
      Lock.release left.lock;
      Lock.release node.lock
    end
    else begin
      let child, child_slot, other =
        if lmax >= rmax then (left, 2 * slot, right) else (right, (2 * slot) + 1, left)
      in
      Lock.release other.lock;
      let tmp = node.list in
      node.list <- child.list;
      child.list <- tmp;
      Atomic.set node.max (head_or_none node.list);
      Atomic.set child.max (head_or_none child.list);
      Lock.release node.lock;
      moundify q (level + 1) child_slot child
    end
  end

let extract h =
  let q = h.q in
  let rec attempt () =
    if Atomic.get q.len = 0 then Elt.none
    else begin
      let root = node_at q 0 0 in
      Lock.acquire root.lock;
      match root.list with
      | [] ->
          Lock.release root.lock;
          (* Root empty implies tree empty under the invariant; but an
             insert may have raced ahead of the len increment, so re-check
             rather than spin on the root. *)
          if Atomic.get q.len = 0 then Elt.none
          else begin
            Domain.cpu_relax (); (* lint: allow unbounded-spin the mound baseline as published *)
            attempt ()
          end
      | top :: rest ->
          root.list <- rest;
          Atomic.set root.max (head_or_none rest);
          Atomic.decr q.len;
          moundify q 0 0 root;
          top
    end
  in
  attempt ()

(* {2 Introspection} *)

let leaf_level q = Atomic.get q.leaf_level

let fold_nodes q f init =
  let acc = ref init in
  for level = 0 to Atomic.get q.leaf_level do
    let nodes = Atomic.get q.levels.(level) in
    for slot = 0 to Array.length nodes - 1 do
      acc := f !acc level slot nodes.(slot)
    done
  done;
  !acc

let check_invariant q =
  fold_nodes q
    (fun ok level slot node ->
      let sorted =
        let rec desc = function
          | [] | [ _ ] -> true
          | a :: (b :: _ as rest) -> a >= b && desc rest
        in
        desc node.list
      in
      let cached = Atomic.get node.max = head_or_none node.list in
      let parent_ok =
        level = 0
        ||
        let parent = node_at q (level - 1) (slot / 2) in
        head_or_none parent.list >= head_or_none node.list
      in
      ok && sorted && cached && parent_ok)
    true

let list_lengths q =
  List.rev (fold_nodes q (fun acc _ _ node -> List.length node.list :: acc) []) |> Array.of_list
