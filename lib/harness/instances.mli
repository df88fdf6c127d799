(** Factories packaging every queue in the repository as a
    {!Zmsq_pq.Intf.instance}, so harness code is generic over them.

    Each call creates a fresh queue. *)

type factory = unit -> Zmsq_pq.Intf.instance

val zmsq : ?params:Zmsq.Params.t -> unit -> factory
(** Default ZMSQ ({!Zmsq.Default}: TATAS trylocks, array sets) with
    [params] as given. The figures' "(array)" curves pass
    [params.hazards = true]. *)

val zmsq_list : ?params:Zmsq.Params.t -> unit -> factory
(** TATAS trylocks with sorted-list sets and hazard pointers on
    ([params.hazards] is forced to [true]): the paper's "zmsq" curves and
    the Figure 2 "tatas" row beside {!zmsq_tas} and {!zmsq_mutex}. *)

val zmsq_leak : ?params:Zmsq.Params.t -> unit -> factory
(** {!zmsq_list} with hazard pointers off: the paper's "zmsq(leak)"
    curves. *)

val zmsq_tas : ?params:Zmsq.Params.t -> unit -> factory
(** TAS trylocks with list sets ({!Zmsq.Tas_q}), hazard pointers on. *)

val zmsq_mutex : ?params:Zmsq.Params.t -> unit -> factory
(** OS mutex with list sets ({!Zmsq.Mutex_q}), hazard pointers on. *)

val zmsq_shard : ?params:Zmsq.Params.t -> unit -> factory
(** Sharded ZMSQ-of-ZMSQs ({!Zmsq.Shard.Default}): [params.shards]
    inner queues with sticky insert routing and two-choice extraction. *)

val mound : factory
val spraylist : factory
val multiqueue : ?queues:int -> unit -> factory
val klsm : ?k:int -> unit -> factory
val locked_heap : factory

val by_name : string -> factory
(** Resolve "zmsq" | "zmsq-list" | "zmsq-leak" | "zmsq-shard" | "mound" |
    "spraylist" | "multiqueue" | "klsm" | "locked-heap" (CLI use). Raises
    [Invalid_argument] on unknown names. *)

val names : string list
