(* lint: prim-functorized *)

(* The library's entry module: the single-queue implementation lives in
   [Zmsq_core] (so sibling modules like [Zmsq_shard] can depend on it —
   dune's wrapped-library rule forbids them from referencing the main
   module), and this file re-exports everything under the [Zmsq.*] names
   the rest of the repository uses. *)

module Params = Params
module Set_intf = Set_intf
module List_set = List_set
module Array_set = Array_set

type counters = Zmsq_core.counters = {
  refills : int;
  splits : int;
  forced_inserts : int;
  min_swaps : int;
  insert_retries : int;
  expands : int;
  swap_downs : int;
  buf_flushes : int;
  buf_claims : int;
  orphan_reclaims : int;
}

type lifecycle = Zmsq_core.lifecycle = Open | Draining | Closed
type handle_state = Zmsq_core.handle_state = Live | Orphaned | Reclaimed | Unregistered

exception Queue_closed = Zmsq_core.Queue_closed

module type S = Zmsq_core.S
module type S_FAMILY = Zmsq_core.S_FAMILY
module type SHARDED = Zmsq_shard.SHARDED

module Make_prim = Zmsq_core.Make_prim
module Make = Zmsq_core.Make
module Default = Zmsq_core.Default
module Tas_q = Zmsq_core.Tas_q
module Mutex_q = Zmsq_core.Mutex_q
module Shard = Zmsq_shard
