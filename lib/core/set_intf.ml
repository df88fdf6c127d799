(** The per-node set abstraction (Section 3.1).

    A TNode's set is only touched while the node's lock is held, so
    implementations are sequential. The paper evaluates two: a sorted
    singly-linked list (mirroring the mound) and an unsorted array (the
    "(array)" curves, trading ordered access for locality and
    allocation-free operation). The array set is the default; the list set
    stays as the differential reference and the figures' "zmsq" column. *)

module Elt = Zmsq_pq.Elt

module type SET = sig
  type t

  val create : unit -> t
  val size : t -> int
  val is_empty : t -> bool

  val max_elt : t -> Elt.t
  (** {!Elt.none} when empty. *)

  val min_elt : t -> Elt.t

  val insert : t -> Elt.t -> unit
  (** Insert at any position (set semantics; duplicates allowed). *)

  val remove_max : t -> Elt.t
  (** Remove and return the maximum; {!Elt.none} when empty. *)

  val remove_min : t -> Elt.t

  val replace_min : t -> Elt.t -> Elt.t * Elt.t
  (** [replace_min s e] removes the minimum and inserts [e] in one
      traversal, returning [(removed_min, new_min)]. Requires a nonempty
      set and [e] greater than the current minimum. This is the hot
      operation of the paper's min-swap insertion enhancement. *)

  val take_top : t -> int -> Elt.t array
  (** [take_top s n] removes the [min n (size s)] largest elements and
      returns them sorted descending. *)

  val split_lower : t -> Elt.t array
  (** Remove and return the [size/2] smallest elements (any order) — the
      half pushed down to children when a set overflows. *)

  val swap_contents : t -> t -> unit
  (** Exchange the entire contents of two sets in O(1) — the primitive
      behind the mound-style swap-down of extractMax. *)

  val fold : ('a -> Elt.t -> 'a) -> 'a -> t -> 'a
  (** Fold over the elements in any order, without copying the set. *)

  val name : string
end
