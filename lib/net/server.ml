module Metrics = Zmsq_obs.Metrics
module Trace = Zmsq_obs.Trace
module Json = Zmsq_obs.Json
module Elt = Zmsq_pq.Elt
module Faulty = Zmsq_prim.Faulty
module Timing = Zmsq_util.Timing

let saturating_deadline ~now budget_ns =
  let b = if budget_ns < 0 then 0 else budget_ns in
  if b > max_int - now then max_int else now + b

module Make (Q : Zmsq.Shard.SHARDED) = struct
  type config = {
    workers : int;
    max_conns : int;
    inflight_window : int;
    max_frame : int;
    max_elts_inflight : int;
    tick_ms : float;
    idle_slice_ns : int;
    fault : (unit -> Faulty.io_fault) option;
  }

  let default_config =
    {
      workers = 2;
      max_conns = 64;
      inflight_window = 64;
      max_frame = Frame.max_frame_default;
      max_elts_inflight = 16_384;
      tick_ms = 5.0;
      idle_slice_ns = 1_000_000;
      fault = None;
    }

  let level_name = function
    | 0 -> "accept"
    | 1 -> "throttle"
    | 2 -> "shed"
    | _ -> "reject"

  (* A [Refuse] is an admission decision (throttle, undecodable request)
     made at read time but answered through the pending queue, so
     responses keep per-connection request order even for pipelined
     clients. *)
  type job = Exec of Protocol.req | Refuse of Protocol.err_code * string

  type rpc = { job : job; r_t0 : int; r_deadline : int }

  type conn = {
    fd : Unix.file_descr;
    dec : Frame.decoder;
    pending : rpc Queue.t;  (** decoded, admission-checked, not yet executed *)
    out : string Queue.t;  (** serialized responses awaiting the socket *)
    mutable out_off : int;  (** consumed prefix of the head of [out] *)
    mutable n_inflight : int;  (** pending + parked extract waiters *)
    mutable handle : Q.handle option;  (** lazily registered by the worker *)
    mutable alive : bool;
  }

  type waiter = {
    w_conn : conn;
    w_max_n : int;
    w_deadline : int;
    w_t0 : int;
    mutable w_acc : Elt.t list;  (** gathered, newest first *)
    mutable w_got : int;
  }

  type worker = {
    w_id : int;
    wake_r : Unix.file_descr;
    wake_w : Unix.file_descr;
    inbox : Unix.file_descr Queue.t;
    inbox_mu : Mutex.t;
  }

  type t = {
    q : Q.t;
    cfg : config;
    listen_fd : Unix.file_descr;
    bound : Unix.sockaddr;
    m : Metrics.t;
    c_acc : Metrics.counter;
    c_comp : Metrics.counter;
    c_thr : Metrics.counter;
    c_shed : Metrics.counter;
    c_rej : Metrics.counter;
    c_dead : Metrics.counter;
    c_closed : Metrics.counter;
    c_bad : Metrics.counter;
    c_drop : Metrics.counter;
    c_conn_acc : Metrics.counter;
    c_conn_rej : Metrics.counter;
    c_orph : Metrics.counter;
    c_applied : Metrics.counter;
    c_extracted : Metrics.counter;
    c_requeued : Metrics.counter;
    c_drained : Metrics.counter;
    h_rpc : Metrics.histogram;
    (* lint: unpadded ladder level; one write per ladder tick (worker 0), reads only elsewhere *)
    level : int Atomic.t;
    (* lint: unpadded inflight gauge; control-plane accuracy over false-sharing avoidance *)
    inflight : int Atomic.t;
    nconns : int Atomic.t;  (* lint: unpadded accept-path only *)
    stopping : bool Atomic.t;  (* lint: unpadded set once at shutdown *)
    stopped : bool Atomic.t;  (* lint: unpadded set once at shutdown *)
    workers : worker array;
    mutable domains : unit Domain.t list;
    shutdown_mu : Mutex.t;
  }

  let sockaddr t = t.bound
  let level t = Atomic.get t.level
  let metrics t = t.m
  let drained_at_shutdown t = Metrics.value t.c_drained

  let trace_instant t ?arg kind =
    match Q.trace t.q with Some tr -> Trace.instant tr ?arg kind | None -> ()

  let trace_complete t ?arg ~t0 kind =
    match Q.trace t.q with Some tr -> Trace.complete tr ?arg ~t0 kind | None -> ()

  let inject t = match t.cfg.fault with Some f -> f () | None -> Faulty.Io_none

  (* {2 Stats and the shed-accounting identity} *)

  let stats_json t =
    let v c = Metrics.value c in
    let sizes = Q.shard_sizes t.q in
    let qlen = Array.fold_left ( + ) 0 sizes in
    let refused =
      v t.c_thr + v t.c_shed + v t.c_rej + v t.c_dead + v t.c_closed + v t.c_bad
    in
    Json.to_string
      (Json.Obj
         [
           ("accepted", Json.Int (v t.c_acc));
           ("completed", Json.Int (v t.c_comp));
           ("throttled", Json.Int (v t.c_thr));
           ("shed", Json.Int (v t.c_shed));
           ("rejected", Json.Int (v t.c_rej));
           ("deadline_expired", Json.Int (v t.c_dead));
           ("closed", Json.Int (v t.c_closed));
           ("bad_request", Json.Int (v t.c_bad));
           ("dropped", Json.Int (v t.c_drop));
           ("refused", Json.Int refused);
           ("in_flight", Json.Int (Atomic.get t.inflight));
           ("conns", Json.Int (Atomic.get t.nconns));
           ("conns_accepted", Json.Int (v t.c_conn_acc));
           ("conns_rejected", Json.Int (v t.c_conn_rej));
           ("conns_orphaned", Json.Int (v t.c_orph));
           ("level", Json.Str (level_name (Atomic.get t.level)));
           ("elts_applied", Json.Int (v t.c_applied));
           ("elts_extracted", Json.Int (v t.c_extracted));
           ("elts_requeued", Json.Int (v t.c_requeued));
           ("elts_drained_shutdown", Json.Int (v t.c_drained));
           ("queue_len", Json.Int qlen);
           ("queue_buffered", Json.Int (Q.Debug.buffered t.q));
           ("live_handles", Json.Int (Q.Debug.live_handles t.q));
           ( "lifecycle",
             Json.Str
               (match Q.lifecycle t.q with
               | Zmsq.Open -> "open"
               | Zmsq.Draining -> "draining"
               | Zmsq.Closed -> "closed") );
         ])

  (* {2 The load-shedding ladder}

     Backlog counts everything admission has let in but extraction has
     not yet removed: published shard contents and staged buffers,
     plus RPCs in flight inside the server. Steps up are
     immediate; steps down require dropping below 80% of the current
     step's threshold (hysteresis, so the ladder does not flap at a
     boundary and shed decisions stay explainable). *)

  let backlog t =
    Array.fold_left ( + ) 0 (Q.shard_sizes t.q)
    + Q.Debug.buffered t.q + Atomic.get t.inflight

  let update_level t =
    let hwm = t.cfg.max_elts_inflight in
    let b = backlog t in
    let cur = Atomic.get t.level in
    let raw =
      if b >= 4 * hwm then 3 else if b >= 2 * hwm then 2 else if b >= hwm then 1 else 0
    in
    let next =
      if raw >= cur then raw
      else begin
        let thresh = match cur with 1 -> hwm | 2 -> 2 * hwm | _ -> 4 * hwm in
        if b * 5 < thresh * 4 then cur - 1 else cur
      end
    in
    Atomic.set t.level next

  (* {2 Per-connection plumbing} *)

  let enqueue_resp conn resp = Queue.add (Frame.encode (Protocol.encode_resp resp)) conn.out

  (* Terminal outcome of one in-flight RPC: count its category, record
     its latency, emit the span, release the inflight slot. *)
  let finish t conn ~t0 counter resp =
    Metrics.incr counter;
    let now = Timing.now_ns () in
    Metrics.observe t.h_rpc (float_of_int (now - t0));
    trace_complete t ~t0 Trace.Rpc;
    conn.n_inflight <- conn.n_inflight - 1;
    Atomic.decr t.inflight;
    enqueue_resp conn resp

  let requeue_acc t service_h w =
    if w.w_got > 0 then begin
      List.iter (fun e -> Q.insert service_h e) w.w_acc;
      Q.flush service_h;
      Metrics.add t.c_requeued w.w_got;
      w.w_acc <- [];
      w.w_got <- 0
    end

  (* Tear one connection down. [abnormal] is the crashed-producer path:
     the handle is orphaned and scavenged (its staged buffer publishes,
     its hazard slot frees) exactly like a dead producer's; pending RPCs
     and parked waiters are accounted as dropped, and any elements a
     waiter had gathered but not yet serialized are re-inserted so
     conservation holds. *)
  let teardown t ~service_h ~waiters conn ~abnormal =
    if conn.alive then begin
      conn.alive <- false;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      Queue.iter
        (fun _ ->
          Metrics.incr t.c_drop;
          conn.n_inflight <- conn.n_inflight - 1;
          Atomic.decr t.inflight)
        conn.pending;
      Queue.clear conn.pending;
      List.iter
        (fun w ->
          if w.w_conn == conn then begin
            (match service_h with Some h -> requeue_acc t h w | None -> ());
            Metrics.incr t.c_drop;
            conn.n_inflight <- conn.n_inflight - 1;
            Atomic.decr t.inflight
          end)
        !waiters;
      waiters := List.filter (fun w -> w.w_conn != conn) !waiters;
      (match conn.handle with
      | Some h when abnormal ->
          Q.orphan h;
          ignore (Q.reclaim_orphans t.q);
          Metrics.incr t.c_orph
      | Some h -> (
          try
            Q.flush h;
            Q.unregister h
          with _ ->
            Q.orphan h;
            ignore (Q.reclaim_orphans t.q);
            Metrics.incr t.c_orph)
      | None -> ());
      conn.handle <- None;
      Atomic.decr t.nconns
    end

  let ensure_handle t conn =
    match conn.handle with
    | Some h -> Some h
    | None -> (
        match Q.register t.q with
        | h ->
            conn.handle <- Some h;
            Some h
        | exception Invalid_argument _ ->
            (* Hazard-slot budget exhausted: reclaim crashed peers and
               retry once before refusing. *)
            ignore (Q.reclaim_orphans t.q);
            (match Q.register t.q with
            | h ->
                conn.handle <- Some h;
                Some h
            | exception Invalid_argument _ -> None))

  (* {2 RPC execution} *)

  let gather h ~max_n =
    let rec go acc got =
      if got >= max_n then (acc, got)
      else begin
        let v = Q.extract h in
        if Elt.is_none v then (acc, got) else go (v :: acc) (got + 1)
      end
    in
    go [] 0

  let counter_for_refusal t = function
    | Protocol.Throttled -> t.c_thr
    | Protocol.Shed -> t.c_shed
    | Protocol.Rejected -> t.c_rej
    | Protocol.Deadline_expired -> t.c_dead
    | Protocol.Closed -> t.c_closed
    | Protocol.Bad_request | Protocol.Too_large -> t.c_bad

  let exec_rpc t conn ~service_h:_ ~waiters rpc =
    let now = Timing.now_ns () in
    match rpc.job with
    | Refuse (code, msg) ->
        finish t conn ~t0:rpc.r_t0 (counter_for_refusal t code) (Protocol.Error (code, msg))
    | Exec Protocol.Ping -> finish t conn ~t0:rpc.r_t0 t.c_comp Protocol.Pong
    | Exec Protocol.Stats ->
        finish t conn ~t0:rpc.r_t0 t.c_comp (Protocol.Stats_json (stats_json t))
    | Exec (Protocol.Insert { elts; _ }) -> (
        if rpc.r_deadline <= now then
          (* Doomed-work elimination: the client's patience ran out while
             the batch sat on the socket — refuse before touching the
             queue rather than doing work nobody is waiting for. *)
          finish t conn ~t0:rpc.r_t0 t.c_dead
            (Protocol.Error (Protocol.Deadline_expired, "budget exhausted before dequeue"))
        else
          let lvl = Atomic.get t.level in
          if lvl >= 3 then
            finish t conn ~t0:rpc.r_t0 t.c_rej
              (Protocol.Error (Protocol.Rejected, "server rejecting inserts"))
          else if lvl >= 2 then
            finish t conn ~t0:rpc.r_t0 t.c_shed
              (Protocol.Error (Protocol.Shed, "server shedding inserts"))
          else
            match ensure_handle t conn with
            | None ->
                finish t conn ~t0:rpc.r_t0 t.c_rej
                  (Protocol.Error (Protocol.Rejected, "handle budget exhausted"))
            | Some h -> (
                let applied = ref 0 in
                (try
                   Array.iter
                     (fun e ->
                       (* Counted before the insert publishes so external
                          conservation checks never observe an extracted
                          element that was not yet "applied". *)
                       Metrics.incr t.c_applied;
                       (try Q.insert h e
                        with Zmsq.Queue_closed as exn ->
                          Metrics.add t.c_applied (-1);
                          raise exn);
                       incr applied)
                     elts
                 with Zmsq.Queue_closed -> ());
                (* One flush per batch: the staged-buffer flush boundary
                   is the RPC boundary. *)
                (try Q.flush h with Zmsq.Queue_closed -> ());
                if !applied > 0 then
                  finish t conn ~t0:rpc.r_t0 t.c_comp (Protocol.Inserted !applied)
                else
                  finish t conn ~t0:rpc.r_t0 t.c_closed
                    (Protocol.Error (Protocol.Closed, "queue draining or closed"))))
    | Exec (Protocol.Extract { max_n; _ }) -> (
        if rpc.r_deadline <= now then
          finish t conn ~t0:rpc.r_t0 t.c_dead
            (Protocol.Error (Protocol.Deadline_expired, "budget exhausted before dequeue"))
        else
          (* Extraction is never shed: it is the only mechanism that
             takes the ladder back down. *)
          match ensure_handle t conn with
          | None ->
              finish t conn ~t0:rpc.r_t0 t.c_rej
                (Protocol.Error (Protocol.Rejected, "handle budget exhausted"))
          | Some h ->
              let acc, got = gather h ~max_n in
              if got > 0 then begin
                Metrics.add t.c_extracted got;
                finish t conn ~t0:rpc.r_t0 t.c_comp
                  (Protocol.Elements (Array.of_list (List.rev acc)))
              end
              else if Q.lifecycle t.q = Zmsq.Closed then
                finish t conn ~t0:rpc.r_t0 t.c_closed
                  (Protocol.Error (Protocol.Closed, "queue closed and empty"))
              else
                waiters :=
                  !waiters
                  @ [
                      {
                        w_conn = conn;
                        w_max_n = max_n;
                        w_deadline = rpc.r_deadline;
                        w_t0 = rpc.r_t0;
                        w_acc = [];
                        w_got = 0;
                      };
                    ])

  (* Parked extract waiters: re-polled every loop; complete on the first
     successful gather, at the deadline (with one final attempt — the
     re-credited-ticket contract one level up), or when the drain ends. *)
  let serve_waiters t ~waiters =
    let now = Timing.now_ns () in
    waiters :=
      List.filter
        (fun w ->
          if not w.w_conn.alive then false
          else begin
            (match w.w_conn.handle with
            | Some h when w.w_got < w.w_max_n ->
                let acc, got = gather h ~max_n:(w.w_max_n - w.w_got) in
                w.w_acc <- acc @ w.w_acc;
                w.w_got <- w.w_got + got
            | _ -> ());
            if w.w_got > 0 then begin
              Metrics.add t.c_extracted w.w_got;
              finish t w.w_conn ~t0:w.w_t0 t.c_comp
                (Protocol.Elements (Array.of_list (List.rev w.w_acc)));
              false
            end
            else if Q.lifecycle t.q = Zmsq.Closed then begin
              finish t w.w_conn ~t0:w.w_t0 t.c_closed
                (Protocol.Error (Protocol.Closed, "queue closed and empty"));
              false
            end
            else if now >= w.w_deadline then begin
              (* Budget spent on a genuinely empty queue: a successful
                 empty reply, not an error — the client's schedule moves
                 on. *)
              finish t w.w_conn ~t0:w.w_t0 t.c_comp (Protocol.Elements [||]);
              false
            end
            else true
          end)
        !waiters

  (* {2 Socket I/O (worker side)} *)

  let accept_rpc t conn payload =
    Metrics.incr t.c_acc;
    Atomic.incr t.inflight;
    conn.n_inflight <- conn.n_inflight + 1;
    let now = Timing.now_ns () in
    match Protocol.decode_req payload with
    | Error (code, msg) ->
        Queue.add { job = Refuse (code, msg); r_t0 = now; r_deadline = max_int } conn.pending
    | Ok req ->
        (* The admission window: a client may pipeline [inflight_window]
           RPCs; Throttle shrinks the window to a quarter, so a
           misbehaving (or merely enthusiastic) client feels backpressure
           before the queue does. *)
        let window =
          if Atomic.get t.level >= 1 then max 1 (t.cfg.inflight_window / 4)
          else t.cfg.inflight_window
        in
        let job =
          if conn.n_inflight > window then
            Refuse
              (Protocol.Throttled, Printf.sprintf "inflight window %d exceeded" window)
          else Exec req
        in
        let budget =
          match req with
          | Protocol.Insert { budget_ns; _ } | Protocol.Extract { budget_ns; _ } ->
              budget_ns
          | Protocol.Ping | Protocol.Stats -> max_int
        in
        Queue.add { job; r_t0 = now; r_deadline = saturating_deadline ~now budget } conn.pending

  (* Returns [true] when any byte moved (the worker had real work). *)
  let handle_readable t ~service_h ~waiters conn buf =
    match inject t with
    | Faulty.Io_drop ->
        teardown t ~service_h ~waiters conn ~abnormal:true;
        true
    | Faulty.Io_stall -> false
    | fault -> (
        let want = match fault with Faulty.Io_short -> 1 | _ -> Bytes.length buf in
        match Unix.read conn.fd buf 0 want with
        | 0 ->
            (* EOF. Bytes stranded mid-frame, or responses the peer never
               read, mean it died rather than finished: crashed-producer
               path. *)
            let abnormal = Frame.pending conn.dec > 0 || conn.n_inflight > 0 in
            teardown t ~service_h ~waiters conn ~abnormal;
            true
        | n ->
            Frame.feed conn.dec buf 0 n;
            let rec pop () =
              match Frame.next conn.dec with
              | Ok (Some payload) ->
                  accept_rpc t conn payload;
                  pop ()
              | Ok None -> ()
              | Error _ ->
                  (* Framing is unrecoverable (torn/oversized): the
                     stream has no resync point. Kill the connection the
                     crashed-producer way. *)
                  teardown t ~service_h ~waiters conn ~abnormal:true
            in
            pop ();
            true
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
        | exception Unix.Unix_error (_, _, _) ->
            teardown t ~service_h ~waiters conn ~abnormal:true;
            true)

  let flush_out t ~service_h ~waiters conn =
    match inject t with
    | Faulty.Io_drop ->
        teardown t ~service_h ~waiters conn ~abnormal:true;
        true
    | Faulty.Io_stall -> false
    | fault -> (
        let progressed = ref false in
        (try
           let continue = ref true in
           while !continue && not (Queue.is_empty conn.out) do
             let head = Queue.peek conn.out in
             let len = String.length head - conn.out_off in
             let len = match fault with Faulty.Io_short -> min 1 len | _ -> len in
             let n = Unix.write_substring conn.fd head conn.out_off len in
             progressed := n > 0;
             conn.out_off <- conn.out_off + n;
             if conn.out_off = String.length head then begin
               ignore (Queue.pop conn.out);
               conn.out_off <- 0
             end;
             (* A short-write fault yields after its one byte so the
                resumption path is exercised on the next loop. *)
             if fault = Faulty.Io_short then continue := false
           done
         with
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | Unix.Unix_error (_, _, _) ->
            teardown t ~service_h ~waiters conn ~abnormal:true);
        !progressed)

  (* {2 Accepts (worker 0)} *)

  let wake w = try ignore (Unix.write w.wake_w (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()

  (* Accept-storm friendly: take every pending connection and hand each
     to a worker round-robin through its inbox — worker 0's own included,
     so every connection enters a loop the same way. *)
  let accept_pending t ~rr =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
          (* Capacity and shutdown gate the *connection*; the ladder
             gates individual RPCs. Rejecting conns at level 3 would
             lock out the reconnecting consumers that are the only
             way back down the ladder. *)
          if Atomic.get t.stopping || Atomic.get t.nconns >= t.cfg.max_conns
          then begin
            (* Typed refusal, never a silent slam: best-effort write
               of a Rejected frame, then close. *)
            Metrics.incr t.c_conn_rej;
            let msg =
              Frame.encode
                (Protocol.encode_resp
                   (Protocol.Error (Protocol.Rejected, "server at capacity")))
            in
            (try ignore (Unix.write_substring fd msg 0 (String.length msg))
             with Unix.Unix_error _ -> ());
            try Unix.close fd with Unix.Unix_error _ -> ()
          end
          else begin
            Unix.set_nonblock fd;
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            Metrics.incr t.c_conn_acc;
            Atomic.incr t.nconns;
            trace_instant t ~arg:(Atomic.get t.nconns) Trace.Accept;
            let w = t.workers.(!rr mod Array.length t.workers) in
            incr rr;
            Mutex.lock w.inbox_mu; (* lint: allow raise-under-lock — Queue.add cannot raise *)
            Queue.add fd w.inbox;
            Mutex.unlock w.inbox_mu;
            wake w
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (_, _, _) -> continue := false
    done

  (* {2 Worker event loop} *)

  let worker_loop t w =
    let buf = Bytes.create 8192 in
    let conns = ref [] in
    let waiters = ref [] in
    let service_h = ref None in
    (try service_h := Some (Q.register t.q) with Invalid_argument _ -> ());
    let drain_flushed = ref false in
    (* Worker 0 also owns the listen socket and the ladder tick, until
       shutdown closes the socket. The tick is time-based, so it keeps
       its cadence whether the loop is idle or busy. *)
    let listening = ref (w.w_id = 0) in
    let rr = ref 0 in
    let tick_ns = int_of_float (t.cfg.tick_ms *. 1e6) in
    let next_tick = ref (Timing.now_ns () + tick_ns) in
    let take_inbox () =
      Mutex.lock w.inbox_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock w.inbox_mu)
        (fun () ->
          while not (Queue.is_empty w.inbox) do
            let fd = Queue.pop w.inbox in
            conns :=
              {
                fd;
                dec = Frame.decoder ~max_frame:t.cfg.max_frame ();
                pending = Queue.create ();
                out = Queue.create ();
                out_off = 0;
                n_inflight = 0;
                handle = None;
                alive = true;
              }
              :: !conns
          done)
    in
    let drain_wake () =
      let b = Bytes.create 64 in
      try
        while Unix.read w.wake_r b 0 64 > 0 do
          ()
        done
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    in
    let running = ref true in
    while !running do
      take_inbox ();
      conns := List.filter (fun c -> c.alive) !conns;
      let stopping = Atomic.get t.stopping in
      if stopping && not !drain_flushed then begin
        (* Drain prerequisite: a drain only completes once every handle
           with staged elements has flushed — publish every
           connection's staged buffer now. *)
        drain_flushed := true;
        List.iter
          (fun c ->
            match c.handle with
            | Some h -> ( try Q.flush h with Zmsq.Queue_closed -> ())
            | None -> ())
          !conns
      end;
      if stopping && !listening then begin
        listening := false;
        try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
      end;
      let rfds = w.wake_r :: List.map (fun c -> c.fd) !conns in
      let rfds = if !listening then t.listen_fd :: rfds else rfds in
      let wfds =
        List.filter_map
          (fun c -> if Queue.is_empty c.out then None else Some c.fd)
          !conns
      in
      let timeout =
        if !waiters <> [] then 0.0
        else if stopping then 0.001
        else if !listening then float_of_int (max 0 (!next_tick - Timing.now_ns ())) /. 1e9
        else t.cfg.tick_ms /. 1000.0
      in
      let r, wr, _ =
        try Unix.select rfds wfds [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem w.wake_r r then drain_wake ();
      if !listening then begin
        if List.mem t.listen_fd r then accept_pending t ~rr;
        let now = Timing.now_ns () in
        if now >= !next_tick then begin
          next_tick := now + tick_ns;
          update_level t
        end
      end;
      let did_io = ref false in
      List.iter
        (fun c ->
          if c.alive && List.mem c.fd r then
            if handle_readable t ~service_h:!service_h ~waiters c buf then did_io := true)
        !conns;
      (* Execute every decoded RPC in per-connection FIFO order. *)
      List.iter
        (fun c ->
          while c.alive && not (Queue.is_empty c.pending) do
            exec_rpc t c ~service_h:!service_h ~waiters (Queue.pop c.pending)
          done)
        !conns;
      serve_waiters t ~waiters;
      List.iter
        (fun c ->
          if c.alive && (List.mem c.fd wr || not (Queue.is_empty c.out)) then
            if flush_out t ~service_h:!service_h ~waiters c then did_io := true)
        !conns;
      (* Idle with parked extract waiters: take one bounded
         [extract_timeout] slice on the worker's service handle — the
         deadline budget genuinely rides the re-credited-ticket path —
         and hand the element to the oldest waiter still on budget. *)
      if (not !did_io) && !waiters <> [] then begin
        match !service_h with
        | Some sh ->
            let now = Timing.now_ns () in
            let nearest =
              List.fold_left (fun acc wt -> min acc wt.w_deadline) max_int !waiters
            in
            let slice = min t.cfg.idle_slice_ns (max 10_000 (nearest - now)) in
            let v = Q.extract_timeout sh ~timeout_ns:slice in
            if not (Elt.is_none v) then begin
              let now = Timing.now_ns () in
              match
                List.find_opt
                  (fun wt -> wt.w_conn.alive && wt.w_deadline > now)
                  !waiters
              with
              | Some wt ->
                  wt.w_acc <- v :: wt.w_acc;
                  wt.w_got <- wt.w_got + 1
              | None ->
                  (* Everyone expired in the window: put it back. *)
                  Q.insert sh v;
                  Q.flush sh;
                  Metrics.incr t.c_requeued
            end
        | None -> Unix.sleepf 0.0002
      end;
      serve_waiters t ~waiters;
      (* Exit: shutdown was requested and the drain has finished. Flush
         what the sockets will take, then tear everything down cleanly. *)
      if stopping && Q.lifecycle t.q = Zmsq.Closed && !waiters = [] then begin
        let deadline = Timing.now_ns () + 200_000_000 in
        let rec final_flush () =
          let remaining =
            List.filter (fun c -> c.alive && not (Queue.is_empty c.out)) !conns
          in
          if remaining <> [] && Timing.now_ns () < deadline then begin
            List.iter
              (fun c -> ignore (flush_out t ~service_h:!service_h ~waiters c))
              remaining;
            if List.exists (fun c -> c.alive && not (Queue.is_empty c.out)) !conns
            then begin
              Unix.sleepf 0.0005;
              final_flush ()
            end
          end
        in
        final_flush ();
        List.iter
          (fun c -> if c.alive then teardown t ~service_h:!service_h ~waiters c ~abnormal:false)
          !conns;
        conns := [];
        running := false
      end
    done;
    (match !service_h with
    | Some h -> (
        try
          Q.flush h;
          Q.unregister h
        with _ -> ())
    | None -> ());
    (try Unix.close w.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close w.wake_w with Unix.Unix_error _ -> ())

  (* {2 Lifecycle} *)

  let create ?(config = default_config) ~q ~addr () =
    if not (Q.params q).Zmsq.Params.blocking then
      invalid_arg "Server.create: queue must be created with blocking = true";
    let listen_fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
       Unix.bind listen_fd addr;
       Unix.listen listen_fd 128;
       Unix.set_nonblock listen_fd
     with e ->
       Unix.close listen_fd;
       raise e);
    let m = Metrics.create ~name:"zmsq_server" () in
    let workers =
      Array.init (max 1 config.workers) (fun w_id ->
          let wake_r, wake_w = Unix.pipe ~cloexec:true () in
          Unix.set_nonblock wake_r;
          Unix.set_nonblock wake_w;
          { w_id; wake_r; wake_w; inbox = Queue.create (); inbox_mu = Mutex.create () })
    in
    let t =
      {
        q;
        cfg = config;
        listen_fd;
        bound = Unix.getsockname listen_fd;
        m;
        c_acc = Metrics.counter m "rpc_accepted_total";
        c_comp = Metrics.counter m "rpc_completed_total";
        c_thr = Metrics.counter m "rpc_throttled_total";
        c_shed = Metrics.counter m "rpc_shed_total";
        c_rej = Metrics.counter m "rpc_rejected_total";
        c_dead = Metrics.counter m "rpc_deadline_expired_total";
        c_closed = Metrics.counter m "rpc_closed_total";
        c_bad = Metrics.counter m "rpc_bad_request_total";
        c_drop = Metrics.counter m "rpc_dropped_total";
        c_conn_acc = Metrics.counter m "conn_accepted_total";
        c_conn_rej = Metrics.counter m "conn_rejected_total";
        c_orph = Metrics.counter m "conn_orphaned_total";
        c_applied = Metrics.counter m "elts_applied_total";
        c_extracted = Metrics.counter m "elts_extracted_total";
        c_requeued = Metrics.counter m "elts_requeued_total";
        c_drained = Metrics.counter m "elts_drained_shutdown_total";
        h_rpc = Metrics.histogram m "rpc_ns";
        level = Atomic.make 0;
        inflight = Atomic.make 0;
        nconns = Atomic.make 0;
        stopping = Atomic.make false;
        stopped = Atomic.make false;
        workers;
        domains = [];
        shutdown_mu = Mutex.create ();
      }
    in
    Metrics.gauge m "conns" (fun () -> Atomic.get t.nconns);
    Metrics.gauge m "in_flight" (fun () -> Atomic.get t.inflight);
    Metrics.gauge m "ladder_level" (fun () -> Atomic.get t.level);
    t.domains <- Array.to_list (Array.map (fun w -> Domain.spawn (fun () -> worker_loop t w)) workers);
    t

  let shutdown t =
    Mutex.lock t.shutdown_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.shutdown_mu)
      (fun () ->
        if not (Atomic.get t.stopped) then begin
          let t0 = Timing.now_ns () in
          Atomic.set t.stopping true;
          Array.iter wake t.workers;
          (* Open -> Draining: inserts now refuse, extraction continues
             until exact emptiness advances the state to Closed. *)
          Q.close ~drain:true t.q;
          (* Self-drain: in-flight client extracts keep being answered by
             the workers; whatever they do not take, this loop recovers,
             so the drain cannot stall on an idle client population.
             Hung connections' orphans are reclaimed along the way. *)
          (match Q.register t.q with
          | h ->
              let rec drain_loop idle =
                if Q.lifecycle t.q <> Zmsq.Closed then begin
                  ignore (Q.reclaim_orphans t.q);
                  let v = Q.extract h in
                  if Elt.is_none v then begin
                    (* Shutdown_mu is held across the whole drain on
                       purpose: a concurrent shutdown caller must block
                       until the drain completes, not interleave with
                       it. *)
                    Unix.sleepf 0.0005; (* lint: allow blocking-under-lock *)
                    drain_loop (idle + 1)
                  end
                  else begin
                    Metrics.incr t.c_drained;
                    drain_loop 0
                  end
                end
              in
              drain_loop 0;
              (* Closed: claim any residue published in the last instant. *)
              let rec mop () =
                let v = Q.extract h in
                if not (Elt.is_none v) then begin
                  Metrics.incr t.c_drained;
                  mop ()
                end
              in
              mop ();
              Q.unregister h
          | exception Invalid_argument _ -> ());
          List.iter Domain.join t.domains;
          t.domains <- [];
          ignore (Q.reclaim_orphans t.q);
          trace_complete t ~t0 Trace.Drain;
          Atomic.set t.stopped true
        end)
end
