(** Factories packaging every queue in the repository as a
    {!Zmsq_pq.Intf.instance}, so harness code is generic over them.

    Each call creates a fresh queue. *)

type factory = unit -> Zmsq_pq.Intf.instance

val zmsq : ?params:Zmsq.Params.t -> unit -> factory
(** Default ZMSQ (TATAS trylocks, list sets). *)

val zmsq_array : ?params:Zmsq.Params.t -> unit -> factory
(** The "(array)" variant. *)

val zmsq_leak : ?params:Zmsq.Params.t -> unit -> factory
(** Hazard pointers disabled — the paper's "ZMSQ (leak)" curves. *)

val zmsq_tas : ?params:Zmsq.Params.t -> unit -> factory
val zmsq_mutex : ?params:Zmsq.Params.t -> unit -> factory

val zmsq_shard : ?params:Zmsq.Params.t -> unit -> factory
(** Sharded ZMSQ-of-ZMSQs ({!Zmsq.Shard.Default}): [params.shards]
    inner queues with sticky insert routing and two-choice extraction. *)

val mound : factory
val spraylist : factory
val multiqueue : ?queues:int -> unit -> factory
val klsm : ?k:int -> unit -> factory
val locked_heap : factory

val by_name : string -> factory
(** Resolve "zmsq" | "zmsq-array" | "zmsq-leak" | "zmsq-shard" | "mound" |
    "spraylist" | "multiqueue" | "klsm" | "locked-heap" (CLI use). Raises
    [Invalid_argument] on unknown names. *)

val names : string list
