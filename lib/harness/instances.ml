module Intf = Zmsq_pq.Intf

type factory = unit -> Intf.instance

let zmsq ?(params = Zmsq.Params.default) () () =
  Intf.pack (module Zmsq.Default) (Zmsq.Default.create ~params ())

module List_q = Zmsq.Make (Zmsq_sync.Lock.Tatas) (Zmsq.List_set)

(* The paper-figure instances below publish hazard pointers, as the
   paper's ZMSQ does; [zmsq_leak] is the same list set without them. *)
let with_hazards params = { params with Zmsq.Params.hazards = true }

let zmsq_list ?(params = Zmsq.Params.default) () () =
  Intf.pack (module List_q) (List_q.create ~params:(with_hazards params) ())

let zmsq_leak ?(params = Zmsq.Params.default) () () =
  let params = { params with Zmsq.Params.hazards = false } in
  Intf.pack (module List_q) (List_q.create ~params ())

let zmsq_tas ?(params = Zmsq.Params.default) () () =
  Intf.pack (module Zmsq.Tas_q) (Zmsq.Tas_q.create ~params:(with_hazards params) ())

let zmsq_shard ?(params = Zmsq.Params.default) () () =
  Intf.pack (module Zmsq.Shard.Default) (Zmsq.Shard.Default.create ~params ())

let zmsq_mutex ?(params = Zmsq.Params.default) () () =
  let params = { (with_hazards params) with Zmsq.Params.lock_policy = Zmsq.Params.Blocking } in
  Intf.pack (module Zmsq.Mutex_q) (Zmsq.Mutex_q.create ~params ())

let mound () = Intf.pack (module Zmsq_mound.Mound) (Zmsq_mound.Mound.create ())

let spraylist () =
  Intf.pack (module Zmsq_spraylist.Spraylist) (Zmsq_spraylist.Spraylist.create ())

let multiqueue ?(queues = 8) () () =
  Intf.pack (module Zmsq_multiqueue.Multiqueue) (Zmsq_multiqueue.Multiqueue.create ~queues ())

let klsm ?(k = 256) () () = Intf.pack (module Zmsq_klsm.Klsm) (Zmsq_klsm.Klsm.create ~k ())

let locked_heap () = Intf.pack (module Zmsq_pq.Locked_heap) (Zmsq_pq.Locked_heap.create ())

let names =
  [ "zmsq"; "zmsq-list"; "zmsq-leak"; "zmsq-tas"; "zmsq-mutex"; "zmsq-shard";
    "mound"; "spraylist"; "multiqueue"; "klsm"; "locked-heap" ]

let by_name = function
  | "zmsq" -> zmsq ()
  | "zmsq-list" -> zmsq_list ()
  | "zmsq-leak" -> zmsq_leak ()
  | "zmsq-tas" -> zmsq_tas ()
  | "zmsq-mutex" -> zmsq_mutex ()
  | "zmsq-shard" -> zmsq_shard ()
  | "mound" -> mound
  | "spraylist" -> spraylist
  | "multiqueue" -> multiqueue ()
  | "klsm" -> klsm ()
  | "locked-heap" -> locked_heap
  | other -> invalid_arg (Printf.sprintf "Instances.by_name: unknown queue %S" other)
