(** Multi-domain socket front-end over a sharded ZMSQ (DESIGN.md §12).

    The server runs [workers] domains, each a [select] event loop over
    its pinned connections (a connection's queue handle is registered,
    used and — on abnormal death — orphaned by exactly one domain, so
    the queue's single-owner handle rule holds by construction). Worker
    0 also owns the listen socket, handing accepted connections out
    round-robin, and drives the load-shedding ladder every [tick_ms].

    Robustness layers, in order of appearance on an RPC's path:
    - {b admission}: per-connection inflight window ([Throttled]) and
      the global ladder Accept → Throttle → Shed-inserts → Reject,
      driven by backlog (shard sizes + staged + server in-flight)
      with step-down hysteresis;
      every shed decision is a typed protocol error, never a drop;
    - {b deadline budgets}: each RPC's budget is stamped into an
      absolute deadline (saturating) at decode; work whose budget is
      spent before it is dequeued is refused ([Deadline_expired])
      without touching the queue, and extract budgets ride
      [extract_timeout]'s re-credited-ticket path in bounded slices;
    - {b degradation & drain}: {!shutdown} stops accepts, moves the
      queue Open → Draining → Closed, flushes every per-connection
      staged buffer, answers in-flight extracts until exact emptiness,
      self-drains the residue, and leaves [live_handles = 0]; a
      connection that dies mid-frame is orphaned and reclaimed like a
      crashed producer. *)

module Make (Q : Zmsq.Shard.SHARDED) : sig
  type t

  type config = {
    workers : int;
    max_conns : int;  (** beyond it, accepts are answered [Rejected] *)
    inflight_window : int;  (** per-connection pipelined-RPC bound *)
    max_frame : int;
    max_elts_inflight : int;
        (** admission ladder high-water mark on total backlog *)
    tick_ms : float;  (** ladder refresh cadence (worker 0, time-based) *)
    idle_slice_ns : int;
        (** one [extract_timeout] slice while parked extract waiters
            outwait an empty queue (bounded so socket work stays live) *)
    fault : (unit -> Zmsq_prim.Faulty.io_fault) option;
        (** server-side wire-fault hook (soak): perturbs reads/writes *)
  }

  val default_config : config

  val create : ?config:config -> q:Q.t -> addr:Unix.sockaddr -> unit -> t
  (** Binds, listens and starts [workers] domains. The queue must have been
      created with [blocking = true]; the server does not own [q]'s
      lifecycle until {!shutdown} (which closes it). Raises
      [Unix.Unix_error] when the address is unavailable. *)

  val sockaddr : t -> Unix.sockaddr
  (** The bound address (with the real port when created on port 0). *)

  val level : t -> int
  (** Current ladder step: 0 accept, 1 throttle, 2 shed, 3 reject. *)

  val level_name : int -> string

  val metrics : t -> Zmsq_obs.Metrics.t
  (** Counters [rpc_accepted_total], [rpc_completed_total],
      [rpc_shed_total], [rpc_throttled_total], [rpc_rejected_total],
      [rpc_deadline_expired_total], [rpc_closed_total],
      [rpc_bad_request_total], [rpc_dropped_total],
      [conn_accepted_total], [conn_rejected_total],
      [conn_orphaned_total], [elts_applied_total],
      [elts_extracted_total], [elts_requeued_total],
      [elts_drained_shutdown_total]; gauges [conns], [in_flight],
      [ladder_level]; histogram [rpc_ns]. See OBSERVABILITY.md. *)

  val stats_json : t -> string
  (** One JSON object with the counters above plus queue gauges — the
      payload behind the [Stats] RPC. The shed-accounting identity
      [accepted = completed + refused + dropped + in_flight] is
      checkable from its fields. *)

  val shutdown : t -> unit
  (** Graceful drain (the SIGTERM path): stop accepting, close the
      queue with [~drain:true], flush per-connection staged buffers,
      keep answering in-flight extracts until the drain reaches exact
      emptiness, self-drain any residue, tear down every connection,
      join all domains and reclaim every handle. Idempotent. *)

  val drained_at_shutdown : t -> int
  (** Elements the shutdown self-drain recovered (not delivered to any
      client — they were still queued when the server stopped). *)
end
