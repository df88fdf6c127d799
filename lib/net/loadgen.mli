(** Closed-loop load generator for the ZMSQ wire protocol.

    Spawns [producers + consumers] client domains against one server
    address, each running its own {!Client.t} with {!Retry} backoff
    (deterministically seeded per domain) and an optional wire-fault
    hook. Producers push insert batches with a per-RPC deadline budget;
    consumers pull extract batches. The run is closed-loop: each domain
    issues its next RPC only after the previous one resolved, so offered
    load self-limits under backpressure instead of ballooning the
    client-side queue.

    Used by [bin/zmsq_load], the soak's server-overload phase and the
    perfci end-to-end experiment. *)

type config = {
  producers : int;
  consumers : int;
  duration_s : float;
  batch : int;  (** elements per insert RPC *)
  extract_n : int;  (** max elements per extract RPC *)
  insert_budget_ns : int;  (** deadline budget stamped on inserts *)
  extract_budget_ns : int;  (** deadline budget stamped on extracts *)
  retry : Retry.policy;
  seed : int;  (** per-domain RNG seeds derive from this *)
  fault : (unit -> Zmsq_prim.Faulty.io_fault) option;
      (** client-side wire-fault hook, applied to every domain *)
}

val default_config : config
(** 2 producers, 2 consumers, 1 s, batch 32, extract 32, 50 ms budgets,
    {!Retry.default_policy}, seed 1, no faults. *)

type report = {
  rpcs_ok : int;  (** completed round trips (including empty extracts) *)
  rpcs_refused : int;  (** typed server refusals that retry gave up on *)
  rpcs_failed : int;  (** transport-level failures that retry gave up on *)
  elts_inserted : int;  (** sum of server-confirmed [Inserted] counts *)
  elts_extracted : int;  (** elements received across extract replies *)
  deadline_expired : int;  (** RPCs refused as doomed work *)
  gave_up : int;  (** retry budgets exhausted (= refused + failed) *)
  retries : int;  (** requests re-sent after a failure ({!Retry.retries}) *)
  backoff_ns : int;  (** time measured backing off before them ({!Retry.waited_ns}) *)
  rpc_ns : Zmsq_util.Stats.Histogram.t;  (** per-RPC round-trip latency *)
}

val run : config -> Unix.sockaddr -> report
(** Blocks for [duration_s] (plus teardown). Each domain's RPC stream is
    deterministic given [seed] and the server's answers. Raises
    [Unix.Unix_error] if the first connection attempt fails outright. *)

val retry_storm : Retry.policy -> report -> string option
(** [retry_storm policy r] is [Some reason] when [r]'s clients backed off
    less than [policy] requires: every delay of its schedule is at least
    [base_ns], so [r.backoff_ns] must reach [r.retries * base_ns]. A
    client that honours the schedule passes on every run, since a sleep
    never ends early; one that retries at once fails as soon as it
    retries. This caps each client at one retry per [base_ns], which is
    what keeps wire faults and shedding from turning into a storm. *)
