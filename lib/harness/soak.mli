(** Fault-injected soak runner for the blocking/buffering liveness layer.

    [run] drives one ZMSQ instance per phase through hostile workload
    shapes — mixed steady-state, bursty producers with a blocking consumer,
    a producer that {e crashes} mid-phase without unregistering (its staged
    buffer is recovered via {!Zmsq.orphan} + {!Zmsq.reclaim_orphans}),
    one-shot producers racing consumer demand, rapid handle churn that
    deliberately exhausts the hazard-slot budget (the one phase run with
    [Params.hazards]), shard churn (sticky
    inserters migrating across a {!Zmsq.Shard} build, a fraction abandoned
    via orphan, under injected trylock losses), and a socket server
    flooded past its admission ladder — all on top of the
    {!Zmsq_prim.Faulty} adapter, so trylock failures, delayed futex wakes,
    spurious timeouts and scheduling stalls fire continuously under real
    parallelism. One runner, generic over the queue module, drives the
    five single-queue phases (the single build seen as one shard) and
    shard-churn; server-overload has its own monitor and teardown.

    Watchdogs (a fault-exempt monitor domain) check, while the phase runs:
    - {b conservation}: extracted can never exceed inserted, and at phase
      end inserted = extracted + drained with zero staged residue;
    - {b drain exactness}: after the drain every shard holds exactly
      zero elements (the single build is one shard);
    - {b no stale element}: once elements are published, extraction
      progress must resume within [stale_ms] (a lost wakeup shows up here);
    - {b wake delivery}: delayed wakes are force-delivered ([quiesce])
      every monitor tick, so "delayed" can never silently become "dropped";
    - {b final-poll}: after each phase a zero-budget [extract_timeout]
      against a provably nonempty queue must claim (the bug-A regression
      probe);
    - {b sticky re-rolls}: shard-churn must re-roll its sticky routing at
      least once.

    The {b relaxation bound} check compares the queue's sampled
    rank-error proxy (see OBSERVABILITY.md) against
    {!Accuracy.sharded_bound} ([batch + ndomains * buffer_len] for one
    shard). It cannot fire as built: the proxy counts only the cached
    root max and the claimable pool entries, so it never exceeds
    [batch + 1], which is below every bound. Exact rank error, replayed
    from an event log, is to replace it; until then it is a fence, not a
    working watchdog.

    On any violation the phase's metrics snapshot and (when [params.obs]
    permits) Chrome trace are dumped under [artifacts_dir].

    Each phase also runs under a wall-clock deadline: its share of
    [secs] plus 60 s. A phase still running then is stuck (a join that
    never returns, a drain that never empties); a stuck domain cannot be
    unwound, so the process prints the phase name and the monitor's last
    counters to stderr and exits with code 3. *)

(** The injection knobs, mirroring {!Zmsq_prim.Faulty.config} plus the
    monitor-driven freeze window. [*_1in] fields are "1 in N ops" rates
    (0 disables). *)
type faults = {
  trylock_fail_1in : int;
  wake_delay_1in : int;
  wake_delay_ops : int;
  spurious_timeout_1in : int;
  stall_faa_1in : int;
  stall_exchange_1in : int;
  stall_relax : int;
  freeze_ms : float;  (** monitor freezes one producer once per phase *)
  io_short_1in : int;  (** wire: truncate a socket read/write to one byte *)
  io_stall_1in : int;  (** wire: stall before a socket op (slow peer) *)
  io_drop_1in : int;  (** wire: sever a connection mid-operation *)
  io_torn_1in : int;  (** wire: corrupt a frame's length prefix *)
}

val no_faults : faults
val default_faults : faults

type phase =
  | Mixed
  | Burst
  | Producer_dies
  | Consumer_starves
  | Handle_churn
  | Shard_churn
  | Server_overload
      (** the lib/net socket front-end over the sharded queue, flooded
          past its admission ladder with wire faults on both sides of
          every connection: clients ride retry/backoff while a
          fault-exempt monitor asserts element conservation and shed
          accounting; a graceful drain then proves exact emptiness, and
          a retry-storm guard ({!Zmsq_net.Loadgen.retry_storm}) requires
          every client retry to wait out the schedule's base delay *)

val phase_name : phase -> string

val phase_of_name : string -> phase option
(** Inverse of {!phase_name}; [None] on an unknown name. *)

val all_phases : phase list
(** Every phase, in the default running order. *)

type phase_report = {
  phase : phase;
  seconds : float;
  inserted : int;
  extracted : int;
  drained : int;
  reclaimed : int;
      (** orphaned handles scavenged during and at the end of the phase *)
  ec_sleeps : int;
  ec_wakes : int;
  qos_samples : int;  (** sampled relaxation-quality probes taken *)
  rank_err_max : float;
      (** max sampled rank-error proxy (at most [batch + 1] by construction) *)
  rank_gap_p99 : float;  (** p99 key gap vs the staged upper-bound witness *)
  sojourn_p99_ns : float;  (** p99 insert->extract age of probed elements *)
  violations : string list;
}

type report = {
  phases : phase_report list;
  total_inserted : int;
  total_extracted : int;
  total_drained : int;
  fault_stats : (string * int) list;  (** summed over phases *)
  violations : string list;  (** all phases, prefixed with the phase name *)
  artifacts : string list;  (** files written under [artifacts_dir] *)
}

type config = {
  seed : int;
  secs : float;  (** total budget, split evenly across the selected phases *)
  producers : int;
  consumers : int;
  batch : int;
  buffer_len : int;
  stale_ms : float;
  faults : faults;
  artifacts_dir : string option;
  log : (string -> unit) option;  (** heartbeats and phase banners *)
  phases : phase list;  (** which phases to run, in order *)
  shards : int;  (** shard count for the shard-churn phase (>= 1) *)
}

val default_config : config
(** seed 1, 2 s, 2x2 domains, batch 48, buffer 8, stale 1500 ms,
    {!default_faults}, no artifacts, no log, {!all_phases}, 4 shards. *)

val run : config -> report

(** The same soak over the queue builds as seen through [W]: {!run} is
    [Make (functor (Q : Zmsq.SHARDED) -> Q)].run. [W] wraps both the
    single build (one shard) and the sharded build, so a test can plant a
    deliberately broken queue (a buggy twin) under every watchdog. *)
module Make (W : functor (Q : Zmsq.SHARDED) -> Zmsq.SHARDED) : sig
  val run : config -> report
end

val report_lines : report -> string list
(** Human-readable summary, one line per phase plus totals. *)
