module Faulty = Zmsq_prim.Faulty
module Rng = Zmsq_util.Rng
module Elt = Zmsq_pq.Elt
module Barrier = Zmsq_sync.Barrier

(* The queues under soak: every primitive routed through the fault adapter,
   node trylocks additionally subject to injected contention losses. *)
module FP = Faulty.Make (Zmsq_prim.Native) ()
module FLocks = Zmsq_sync.Lock.Make (FP)

module FLock =
  Zmsq_sync.Lock.Faulty
    (FLocks.Tatas)
    (struct
      let fail_try_acquire = FP.Ctl.inject_try_acquire_failure
    end)

(* The single-queue build, seen through the sharded interface as one
   shard, so one runner drives every queue phase. *)
module Single = struct
  include Zmsq.Make_prim (FP) (FLock) (Zmsq.Array_set)

  let shard_count _ = 1
  let shard_sizes q = [| length q |]
  let shard_metrics q = [| metrics q |]
end

(* The sharded build under the same fault adapter: shard-churn drives
   sticky insert routing and two-choice extraction through injected
   trylock losses, and server-overload serves it over sockets. *)
module Sharded = Zmsq.Shard.Make_prim (FP) (FLock) (Zmsq.Array_set)

type faults = {
  trylock_fail_1in : int;
  wake_delay_1in : int;
  wake_delay_ops : int;
  spurious_timeout_1in : int;
  stall_faa_1in : int;
  stall_exchange_1in : int;
  stall_relax : int;
  freeze_ms : float;
  io_short_1in : int;
  io_stall_1in : int;
  io_drop_1in : int;
  io_torn_1in : int;
}

let no_faults =
  {
    trylock_fail_1in = 0;
    wake_delay_1in = 0;
    wake_delay_ops = 0;
    spurious_timeout_1in = 0;
    stall_faa_1in = 0;
    stall_exchange_1in = 0;
    stall_relax = 0;
    freeze_ms = 0.;
    io_short_1in = 0;
    io_stall_1in = 0;
    io_drop_1in = 0;
    io_torn_1in = 0;
  }

let default_faults =
  {
    trylock_fail_1in = 5;
    wake_delay_1in = 4;
    wake_delay_ops = 40;
    spurious_timeout_1in = 4;
    stall_faa_1in = 64;
    stall_exchange_1in = 64;
    stall_relax = 200;
    freeze_ms = 40.;
    (* Wire faults only bite in the server-overload phase (the only one
       with sockets); harmless elsewhere. *)
    io_short_1in = 6;
    io_stall_1in = 16;
    io_drop_1in = 400;
    io_torn_1in = 500;
  }

type phase =
  | Mixed
  | Burst
  | Producer_dies
  | Consumer_starves
  | Handle_churn
  | Shard_churn
  | Server_overload

let phase_name = function
  | Mixed -> "mixed"
  | Burst -> "burst"
  | Producer_dies -> "producer-dies"
  | Consumer_starves -> "consumer-starves"
  | Handle_churn -> "handle-churn"
  | Shard_churn -> "shard-churn"
  | Server_overload -> "server-overload"

let phase_of_name = function
  | "mixed" -> Some Mixed
  | "burst" -> Some Burst
  | "producer-dies" -> Some Producer_dies
  | "consumer-starves" -> Some Consumer_starves
  | "handle-churn" -> Some Handle_churn
  | "shard-churn" -> Some Shard_churn
  | "server-overload" -> Some Server_overload
  | _ -> None

let all_phases =
  [
    Mixed;
    Burst;
    Producer_dies;
    Consumer_starves;
    Handle_churn;
    Shard_churn;
    Server_overload;
  ]

type phase_report = {
  phase : phase;
  seconds : float;
  inserted : int;
  extracted : int;
  drained : int;
  reclaimed : int;  (** orphaned handles scavenged (live + end-of-phase) *)
  ec_sleeps : int;
  ec_wakes : int;
  qos_samples : int;
  rank_err_max : float;
  rank_gap_p99 : float;
  sojourn_p99_ns : float;
  violations : string list;
}

type report = {
  phases : phase_report list;
  total_inserted : int;
  total_extracted : int;
  total_drained : int;
  fault_stats : (string * int) list;
  violations : string list;
  artifacts : string list;
}

type config = {
  seed : int;
  secs : float;
  producers : int;
  consumers : int;
  batch : int;
  buffer_len : int;
  stale_ms : float;
  faults : faults;
  artifacts_dir : string option;
  log : (string -> unit) option;
  phases : phase list;
  shards : int;
}

let default_config =
  {
    seed = 1;
    secs = 2.0;
    producers = 2;
    consumers = 2;
    batch = 48;
    buffer_len = 8;
    stale_ms = 1500.;
    faults = default_faults;
    artifacts_dir = None;
    log = None;
    phases = all_phases;
    shards = 4;
  }

let now_ns = Zmsq_util.Timing.now_ns

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let phase_log cfg phase s =
  match cfg.log with
  | Some f -> f (Printf.sprintf "[soak %-16s] %s" (phase_name phase) s)
  | None -> ()

(* Arm the fault adapter for one phase; [io] gates the wire faults. *)
let install_faults cfg ~salt ~index ~io =
  let f = cfg.faults in
  let wire n = if io then n else 0 in
  FP.Ctl.install
    {
      Faulty.seed = cfg.seed lxor ((index + 1) * salt);
      trylock_fail_1in = f.trylock_fail_1in;
      wake_delay_1in = f.wake_delay_1in;
      wake_delay_ops = f.wake_delay_ops;
      spurious_timeout_1in = f.spurious_timeout_1in;
      stall_faa_1in = f.stall_faa_1in;
      stall_exchange_1in = f.stall_exchange_1in;
      stall_relax = f.stall_relax;
      io_short_1in = wire f.io_short_1in;
      io_stall_1in = wire f.io_stall_1in;
      io_drop_1in = wire f.io_drop_1in;
      io_torn_1in = wire f.io_torn_1in;
    }

let write_metrics path m =
  Zmsq_obs.Export.write_file ~path
    (Zmsq_obs.Json.to_string (Zmsq_obs.Export.json_of_snapshot (Zmsq_obs.Metrics.snapshot m)))

(* A phase's violation log, safe to call from any domain. The first
   violation also writes [dump dir] under [artifacts_dir], so the
   artifacts show the state that tripped it. [finish] returns the
   violations in order and the files written. *)
let violation_sink cfg ~log ~dump =
  let mu = Stdlib.Mutex.create () in
  let vios = ref [] and artifacts = ref [] in
  let violation msg =
    Stdlib.Mutex.protect mu (fun () ->
        let first = !vios = [] in
        vios := msg :: !vios;
        log ("VIOLATION: " ^ msg);
        match cfg.artifacts_dir with
        | Some dir when first ->
            mkdir_p dir;
            artifacts := dump dir
        | _ -> ())
  in
  let finish () = (List.rev !vios, !artifacts) in
  (violation, finish)

(* A phase's report, its violations left to the caller. The QoS telemetry
   lives in each shard's own registry: sample counts are summed, and each
   histogram figure is the worst shard's. *)
let phase_report ~phase ~seconds ~inserted ~extracted ~drained ~reclaimed ~eventcount
    shard_metrics =
  let module Hist = Zmsq_util.Stats.Histogram in
  let snaps = Array.to_list (Array.map Zmsq_obs.Metrics.snapshot shard_metrics) in
  let worst name f =
    List.fold_left
      (fun acc s ->
        match List.assoc_opt name s.Zmsq_obs.Metrics.hists with
        | Some h -> Float.max acc (f h)
        | None -> acc)
      0.0 snaps
  in
  let ec_sleeps, ec_wakes = Option.value eventcount ~default:(0, 0) in
  {
    phase;
    seconds;
    inserted;
    extracted;
    drained;
    reclaimed;
    ec_sleeps;
    ec_wakes;
    qos_samples =
      List.fold_left
        (fun acc s ->
          acc
          + Option.value ~default:0
              (List.assoc_opt "qos_samples_total" s.Zmsq_obs.Metrics.counters))
        0 snaps;
    rank_err_max = worst "rank_error_sampled" Hist.max_value;
    rank_gap_p99 = worst "rank_gap_keys" (fun h -> Hist.percentile h 99.0);
    sojourn_p99_ns = worst "sojourn_ns" (fun h -> Hist.percentile h 99.0);
    violations = [];
  }

let diff_stats before after =
  List.map
    (fun (k, v) -> (k, v - (try List.assoc k before with Not_found -> 0)))
    after

(* The monitor's latest counters, kept for the phase deadline's report. *)
let record last s =
  Stdlib.Atomic.set last s;
  s

(* Past its share of [secs] plus this grace, a phase is stuck (a join that
   never returns, a drain that never empties). *)
let phase_grace_s = 60.

(* Run one phase under a wall-clock deadline that fails loudly: a watchdog
   thread waits on a pipe the phase writes when it ends; if the deadline
   comes first it prints the phase name and the monitor's last counters
   and exits the process with code 3, since a stuck domain cannot be
   unwound. *)
let with_deadline ~phase ~seconds ~last f =
  let r, w = Unix.pipe ~cloexec:true () in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec watch () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then begin
      Printf.eprintf
        "soak: phase %s missed its %.1f s wall-clock deadline; monitor's last counters: %s\n%!"
        (phase_name phase) seconds (Stdlib.Atomic.get last);
      Unix._exit 3
    end;
    match Unix.select [ r ] [] [] left with
    | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> watch ()
    | _ -> ()
  in
  let watchdog = Thread.create watch () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.write_substring w "!" 0 1);
      Thread.join watchdog;
      Unix.close r;
      Unix.close w)
    f

(* One queue phase = one fresh queue + one fresh set of worker domains, so
   a violation's artifacts describe exactly the workload that tripped it.
   [Q] is the single build seen as one shard (five phases) or the sharded
   build (shard-churn); only the worker bodies and a few phase-specific
   checks differ by phase. *)
module Runner (Q : Zmsq.SHARDED) = struct
  let run_phase cfg ~index ~phase ~dur ~last =
    let log = phase_log cfg phase in
    let f = cfg.faults in
    FP.Ctl.reset ();
    install_faults cfg ~salt:0x9E37 ~index ~io:true;
    let base =
      {
        Zmsq.Params.default with
        batch = cfg.batch;
        buffer_len = cfg.buffer_len;
        blocking = true;
        obs = Zmsq_obs.Level.Full;
        (* Dense QoS sampling (1 in 16): soak phases are short, and the
           reported QoS figures need real samples. *)
        obs_sample_shift = 4;
      }
    in
    let params =
      Zmsq.Params.validate
        (match phase with
        | Handle_churn ->
            (* Handle churn exists to fill the hazard table and force
               [reclaim_orphans] through it; the other phases run the
               default. *)
            { base with hazards = true }
        | Shard_churn ->
            (* Short sticky windows: re-rolls must actually churn while the
               phase runs, not only when a trylock loss trips the hint. *)
            { base with shards = cfg.shards; stickiness = 4; seed = Some cfg.seed }
        | _ -> base)
    in
    let q = Q.create ~params () in
    let stop = Stdlib.Atomic.make false in
    let inserted = Stdlib.Atomic.make 0 in
    let extracted = Stdlib.Atomic.make 0 in
    let blocking_alive = Stdlib.Atomic.make 0 in
    let producer_keys = Array.make (max 1 cfg.producers) (-1) in
    let violation, finish =
      violation_sink cfg ~log ~dump:(fun dir ->
          let tag = Filename.concat dir ("soak-" ^ phase_name phase) in
          write_metrics (tag ^ "-metrics.json") (Q.metrics q)
          ::
          (match Q.trace q with
          | Some tr -> [ Zmsq_obs.Trace.save ~path:(tag ^ "-trace.json") tr ]
          | None -> []))
    in
    (* main + producers + consumers + monitor *)
    let bar = Barrier.create (cfg.producers + cfg.consumers + 2) in
    let ins_one h rng =
      (* Count before publishing so the monitor can never observe
         extracted > inserted. *)
      Stdlib.Atomic.incr inserted;
      Q.insert h (Elt.of_priority (Rng.int rng 1_000_000))
    in
    let park_until_stop () =
      while not (Stdlib.Atomic.get stop) do
        Unix.sleepf 0.001
      done
    in
    let rec register_fresh () =
      (* Hazard pressure, when [Params.hazards] is set: with
         [orphan]-leaked handles in flight a register may find a shard's
         table full; it must succeed after a scavenge. *)
      try Q.register q
      with Invalid_argument _ ->
        ignore (Q.reclaim_orphans q);
        register_fresh ()
    in
    let victim_handle = Stdlib.Atomic.make None in
    let producer idx () =
      producer_keys.(idx) <- FP.Ctl.self_key ();
      let h = ref (Q.register q) in
      let rng =
        Rng.create
          ~seed:
            (match phase with
            | Shard_churn -> cfg.seed + (211 * idx) + 3
            | _ -> cfg.seed + (101 * idx) + 7)
          ()
      in
      Barrier.wait bar;
      (match phase with
      | Mixed ->
          while not (Stdlib.Atomic.get stop) do
            ins_one !h rng;
            if Rng.int rng 512 = 0 then Unix.sleepf 0.0002
          done
      | Burst ->
          while not (Stdlib.Atomic.get stop) do
            for _ = 1 to 48 do
              ins_one !h rng
            done;
            Unix.sleepf 0.001
          done
      | Producer_dies ->
          if idx = 0 then begin
            (* Insert a backlog, then die for real: crash the domain (it
               parks at its next primitive op) with the handle never
               unregistered and whatever stayed staged still in the insert
               buffer. Conservation now depends entirely on the orphan
               declaration (monitor) and reclamation (consumer piggyback or
               the end-of-phase scavenge). *)
            for _ = 1 to 64 do
              ins_one !h rng
            done;
            Stdlib.Atomic.set victim_handle (Some !h);
            FP.Ctl.crash (FP.Ctl.self_key ());
            (* Parks inside the first cpu_relax; released by the teardown
               thaw, after which [stop] is already set. *)
            while not (Stdlib.Atomic.get stop) do
              FP.cpu_relax () (* lint: allow unbounded-spin the crashed victim parks in the Faulty freeze *)
            done
          end
          else
            while not (Stdlib.Atomic.get stop) do
              ins_one !h rng;
              if Rng.int rng 512 = 0 then Unix.sleepf 0.0002
            done
      | Consumer_starves ->
          (* One-shot producer: a single staggered insert, then silence.
             Whether that element ever becomes visible is exactly the
             demand-after-stage contract of buf_insert (bug B). *)
          Unix.sleepf (0.01 +. (0.025 *. float_of_int idx));
          if not (Stdlib.Atomic.get stop) then ins_one !h rng;
          park_until_stop ()
      | Handle_churn ->
          (* Register/retire churn with deliberate leaks: a fraction of
             handles are abandoned via [orphan] instead of unregistered, so
             registration pressure (the hazard table is finite) forces the
             scavenger to actually run — a registration that fails with the
             table full must succeed after [reclaim_orphans]. *)
          let rec churn () =
            if not (Stdlib.Atomic.get stop) then begin
              match
                try Some (Q.register q)
                with Invalid_argument _ ->
                  ignore (Q.reclaim_orphans q);
                  None
              with
              | None -> churn ()
              | Some h2 ->
                  for _ = 1 to 1 + Rng.int rng 4 do
                    ins_one h2 rng
                  done;
                  if Rng.int rng 4 = 0 then Q.orphan h2 else Q.unregister h2;
                  churn ()
            end
          in
          churn ()
      | Shard_churn ->
          (* Sticky inserters that migrate: most retire their handle
             cleanly, a fraction abandon it mid-stick with whatever stayed
             staged — conservation then depends on the outer-then-inner
             orphan reclamation. *)
          while not (Stdlib.Atomic.get stop) do
            ins_one !h rng;
            if Rng.int rng 96 = 0 then begin
              (if Rng.int rng 4 = 0 then Q.orphan !h else Q.unregister !h);
              h := register_fresh ()
            end;
            if Rng.int rng 512 = 0 then Unix.sleepf 0.0002
          done
      | Server_overload ->
          (* Dispatched to [run_server_phase] by [run]; never reaches here. *)
          assert false);
      (* The crashed victim never unregisters — that is the point. *)
      if (not (phase = Producer_dies && idx = 0)) && Q.handle_state !h = Zmsq.Live then
        Q.unregister !h
    in
    let consumer idx () =
      let h = Q.register q in
      let blocking_mode = phase = Burst && idx = 0 in
      if blocking_mode then Stdlib.Atomic.incr blocking_alive;
      Barrier.wait bar;
      (if blocking_mode then begin
         while not (Stdlib.Atomic.get stop) do
           let v = Q.extract_blocking h in
           if not (Elt.is_none v) then Stdlib.Atomic.incr extracted
         done;
         Stdlib.Atomic.decr blocking_alive
       end
       else
         let timeout_ns =
           match phase with Consumer_starves -> 3_000_000 | _ -> 2_000_000
         in
         while not (Stdlib.Atomic.get stop) do
           let v = Q.extract_timeout h ~timeout_ns in
           if not (Elt.is_none v) then Stdlib.Atomic.incr extracted
         done);
      Q.unregister h
    in
    let record_counters () =
      record last
        (Printf.sprintf "inserted=%d extracted=%d sizes=[%s] buffered=%d"
           (Stdlib.Atomic.get inserted) (Stdlib.Atomic.get extracted)
           (String.concat ";" (Array.to_list (Array.map string_of_int (Q.shard_sizes q))))
           (Q.Debug.buffered q))
    in
    let monitor () =
      FP.Ctl.exempt_self ();
      Barrier.wait bar;
      let stale_ns = int_of_float (cfg.stale_ms *. 1e6) in
      let start = now_ns () in
      let anchor = ref start in
      let last_ext = ref 0 in
      let next_beat = ref (start + 500_000_000) in
      let freeze_due =
        if f.freeze_ms > 0. && phase <> Consumer_starves then
          Some (start + int_of_float (dur *. 0.4 *. 1e9))
        else None
      in
      let frozen = ref None in
      while not (Stdlib.Atomic.get stop) do
        Unix.sleepf 0.002;
        (* Deliver every delayed wake: "delayed" must never become
           "dropped", and any remaining stall is the algorithm's fault. *)
        FP.Ctl.quiesce ();
        (* Declare the crashed producer's handle orphaned (idempotent CAS):
           from here consumers may piggyback-reclaim its staged backlog. *)
        (match Stdlib.Atomic.get victim_handle with
        | Some vh when FP.Ctl.crashed () <> [] -> Q.orphan vh
        | _ -> ());
        let now = now_ns () in
        (* Conservation, sampled extracted-first so the inequality is
           monotone-safe under concurrent updates. *)
        let ext = Stdlib.Atomic.get extracted in
        let ins = Stdlib.Atomic.get inserted in
        if ext > ins then
          violation (Printf.sprintf "conservation: extracted %d > inserted %d" ext ins);
        if ext <> !last_ext then begin
          last_ext := ext;
          anchor := now
        end;
        if Q.length q = 0 then anchor := now;
        (match (freeze_due, !frozen) with
        | Some due, None when now >= due && producer_keys.(min 1 (cfg.producers - 1)) >= 0
          ->
            (* Freeze a producer mid-run: it may hold staged elements and
               a mid-flush lock (on the sharded build, in its current
               shard), and the others must keep the phase live until the
               thaw. *)
            let victim = producer_keys.(min 1 (cfg.producers - 1)) in
            FP.Ctl.freeze victim;
            frozen := Some (victim, now + int_of_float (f.freeze_ms *. 1e6))
        | _ -> ());
        (match !frozen with
        | Some (victim, until) when now >= until ->
            FP.Ctl.thaw victim;
            frozen := Some (victim, max_int);
            (* A thawed lock-holder may have pinned extraction for the whole
               window; restart the staleness clock. *)
            anchor := now
        | _ -> ());
        if now - !anchor > stale_ns then begin
          violation
            (Printf.sprintf
               "stale element: %d published elements but no extraction progress in \
                %.0f ms"
               (Q.length q) cfg.stale_ms);
          anchor := now
        end;
        if now >= !next_beat then begin
          next_beat := now + 500_000_000;
          log ("heartbeat: " ^ record_counters ())
        end
      done;
      ignore (record_counters ());
      (match !frozen with
      | Some (victim, _) -> FP.Ctl.thaw victim
      | None -> ());
      FP.Ctl.quiesce ()
    in
    let t0 = now_ns () in
    let doms =
      List.init cfg.producers (fun i -> Domain.spawn (producer i))
      @ List.init cfg.consumers (fun i -> Domain.spawn (consumer i))
    in
    let mon = Domain.spawn monitor in
    let hmain = Q.register q in
    Barrier.wait bar;
    Unix.sleepf dur;
    Stdlib.Atomic.set stop true;
    Domain.join mon;
    (* Blocking consumers hold no deadline; feed sentinels (flushed so they
       publish immediately) until every one has re-checked [stop] and left. *)
    while Stdlib.Atomic.get blocking_alive > 0 do
      FP.Ctl.quiesce ();
      Stdlib.Atomic.incr inserted;
      Q.insert hmain (Elt.of_priority 1);
      Q.flush hmain;
      Unix.sleepf 0.0005
    done;
    (* A crashed domain is parked at its freeze gate; release it so the join
       below terminates — [stop] is already set, so it exits immediately. *)
    List.iter FP.Ctl.thaw (FP.Ctl.crashed ());
    List.iter Domain.join doms;
    FP.Ctl.quiesce ();
    let seconds = float_of_int (now_ns () - t0) /. 1e9 in
    (* Quiescent accounting: every live worker handle was unregistered
       (staged residue published); dead ones are orphaned here if the
       monitor never got to it, then scavenged — after which nothing may
       remain staged anywhere. *)
    (match Stdlib.Atomic.get victim_handle with
    | Some vh when Q.handle_state vh = Zmsq.Live -> Q.orphan vh
    | _ -> ());
    ignore (Q.reclaim_orphans q);
    let drained = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let v = Q.extract hmain in
      if Elt.is_none v then continue_ := false else incr drained
    done;
    let ins = Stdlib.Atomic.get inserted in
    let ext = Stdlib.Atomic.get extracted in
    if ins <> ext + !drained then
      violation
        (Printf.sprintf "conservation: inserted %d <> extracted %d + drained %d" ins ext
           !drained);
    (* Drain exactness per shard: an "empty" sharded queue means every shard
       is exactly empty, not just the two shards the last extraction probed. *)
    Array.iteri
      (fun i sz ->
        if sz <> 0 then
          violation (Printf.sprintf "drain exactness: shard %d still holds %d elements" i sz))
      (Q.shard_sizes q);
    if Q.Debug.buffered q <> 0 then
      violation
        (Printf.sprintf "staged residue after unregister+reclaim+drain: %d"
           (Q.Debug.buffered q));
    if not (Q.Debug.check_invariant q) then violation "tree invariant check failed";
    (match phase with
    | Consumer_starves
      when dur >= (0.025 *. float_of_int cfg.producers) +. 0.3 && cfg.consumers > 0 ->
        (* Every one-shot insert after the first must have been demand-flushed
           and claimed while the phase ran (bug-B contract); only the very
           first may legally sit staged until unregister. *)
        let need = max 1 (cfg.producers - 1) in
        if ext < need then
          violation
            (Printf.sprintf
               "consumer starvation: only %d of %d one-shot inserts were extracted \
                live (need >= %d)"
               ext cfg.producers need)
    | _ -> ());
    (* Bug-A probe: a zero-budget extract_timeout against a provably nonempty
       queue must claim via the final poll, never report empty. *)
    Q.insert hmain (Elt.of_priority 7);
    Q.flush hmain;
    let probe = Q.extract_timeout hmain ~timeout_ns:0 in
    if Elt.is_none probe then
      violation "final poll: zero-budget extract_timeout missed a present element";
    Q.unregister hmain;
    if Q.Debug.live_handles q <> 0 then
      violation
        (Printf.sprintf "handle registry leak: %d handles survive teardown"
           (Q.Debug.live_handles q));
    let reclaimed = (Q.Debug.counters q).Zmsq.orphan_reclaims in
    let outer = Zmsq_obs.Metrics.snapshot (Q.metrics q) in
    let outer_counter name =
      Option.value ~default:0 (List.assoc_opt name outer.Zmsq_obs.Metrics.counters)
    in
    (match phase with
    | Producer_dies when reclaimed < 1 ->
        violation "producer-dies: the crashed producer's handle was never reclaimed"
    | Shard_churn when cfg.shards > 1 && outer_counter "shard_rerolls_total" = 0 ->
        violation "sticky routing never re-rolled despite injected trylock losses"
    | _ -> ());
    (* The relaxation bound on the queue's sampled rank-error proxy:
       {!Accuracy.sharded_bound}, which for one shard is one staged
       extraction batch plus every worker's insert buffer. The proxy only
       counts claimable pool entries plus the cached root max, so it stays
       within [batch + 1] by construction and this check cannot fire; exact
       rank error, replayed from an event log, is to replace it. *)
    let r =
      phase_report ~phase ~seconds ~inserted:ins ~extracted:ext ~drained:!drained ~reclaimed
        ~eventcount:(Q.Debug.eventcount_stats q) (Q.shard_metrics q)
    in
    let relax_bound =
      Accuracy.sharded_bound ~shards:(Q.shard_count q) ~batch:cfg.batch
        ~ndomains:(cfg.producers + cfg.consumers + 1)
        ~buffer_len:cfg.buffer_len
    in
    if r.qos_samples > 0 && r.rank_err_max > float_of_int relax_bound then
      violation
        (Printf.sprintf
           "relaxation bound: sampled rank error %.0f exceeds \
            shards*(batch + ndomains*buffer_len) + slack = %d (shards=%d)"
           r.rank_err_max relax_bound (Q.shard_count q));
    let violations, artifacts = finish () in
    log
      (Printf.sprintf
         "done in %.2fs: inserted=%d extracted=%d drained=%d reclaimed=%d sleeps=%d \
          wakes=%d rerolls=%d two_choice=%d sweeps=%d qos=%d rank_err_max=%.0f \
          violations=%d"
         seconds ins ext !drained reclaimed r.ec_sleeps r.ec_wakes
         (outer_counter "shard_rerolls_total")
         (outer_counter "shard_two_choice_total")
         (outer_counter "shard_fallback_sweeps_total")
         r.qos_samples r.rank_err_max (List.length violations));
    ({ r with violations }, artifacts)
end

module Make (W : functor (Q : Zmsq.SHARDED) -> Zmsq.SHARDED) = struct
  module SQ = W (Sharded)
  module Single_runner = Runner (W (Single))
  module Shard_runner = Runner (SQ)

  (* Server-overload: the whole network stack — lib/net's socket front-end
     over the sharded FP-faulted build — pushed past its admission ladder.
     Producer batches (128/RPC) outweigh consumer extracts (16/RPC), so
     backlog climbs through Throttle/Shed into Reject and the clients ride
     retry/backoff. The phase runs two halves over one server: a clean
     half (prim faults only) and a wire-faulted half (short reads, stalls,
     severed connections, torn frames on both sides of every socket), then
     a SIGTERM-style graceful drain. The fault-exempt monitor asserts
     element conservation and shed accounting from the server's own
     counters while the overload runs; teardown asserts the exact
     identities, drain-to-emptiness, zero leaked handles, that the ladder
     actually engaged, that wire faults actually fired, and that every
     client retry in either half waited out the schedule's base delay (no
     retry storm, [Zmsq_net.Loadgen.retry_storm]). *)
  module NetSrv = Zmsq_net.Server.Make (SQ)

  let run_server_phase cfg ~index ~phase ~dur ~last =
    let log = phase_log cfg phase in
    let f = cfg.faults in
    FP.Ctl.reset ();
    install_faults cfg ~salt:0xC2B2 ~index ~io:false;
    let params =
      Zmsq.Params.validate
        {
          Zmsq.Params.default with
          batch = cfg.batch;
          buffer_len = cfg.buffer_len;
          blocking = true;
          shards = cfg.shards;
          stickiness = 8;
          seed = Some cfg.seed;
          obs = Zmsq_obs.Level.Full;
          obs_sample_shift = 4;
        }
    in
    let q = SQ.create ~params () in
    let scfg =
      {
        NetSrv.default_config with
        NetSrv.workers = 2;
        max_conns = 32;
        inflight_window = 8;
        (* A low high-water mark so the flood provably climbs the whole
           ladder within the phase budget. *)
        max_elts_inflight = 512;
        tick_ms = 1.0;
        idle_slice_ns = 500_000;
        fault = Some FP.Ctl.inject_io;
      }
    in
    let srv =
      NetSrv.create ~config:scfg ~q
        ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
        ()
    in
    let violation, finish =
      violation_sink cfg ~log ~dump:(fun dir ->
          [
            write_metrics
              (Filename.concat dir "soak-server-overload-queue-metrics.json")
              (SQ.metrics q);
            write_metrics
              (Filename.concat dir "soak-server-overload-server-metrics.json")
              (NetSrv.metrics srv);
          ])
    in
    let counters () =
      let snap = Zmsq_obs.Metrics.snapshot (NetSrv.metrics srv) in
      fun name ->
        match List.assoc_opt name snap.Zmsq_obs.Metrics.counters with
        | Some n -> n
        | None -> 0
    in
    let refused_of c =
      c "rpc_throttled_total" + c "rpc_shed_total" + c "rpc_rejected_total"
      + c "rpc_deadline_expired_total" + c "rpc_closed_total" + c "rpc_bad_request_total"
    in
    let record_counters c =
      record last
        (Printf.sprintf "level=%s accepted=%d completed=%d refused=%d qlen=%d"
           (NetSrv.level_name (NetSrv.level srv))
           (c "rpc_accepted_total") (c "rpc_completed_total") (refused_of c)
           (SQ.length q))
    in
    let stop_mon = Stdlib.Atomic.make false in
    let monitor () =
      FP.Ctl.exempt_self ();
      let stale_ns = int_of_float (cfg.stale_ms *. 1e6) in
      let anchor = ref (now_ns ()) in
      let last_progress = ref 0 in
      let next_beat = ref (now_ns () + 500_000_000) in
      while not (Stdlib.Atomic.get stop_mon) do
        Unix.sleepf 0.002;
        FP.Ctl.quiesce ();
        let now = now_ns () in
        let c = counters () in
        let applied = c "elts_applied_total" in
        let extracted = c "elts_extracted_total" + c "elts_drained_shutdown_total" in
        (* Conservation, mid-flight: the server can never have handed out
           more elements than admission applied. ([applied] is bumped
           before the insert publishes, so this direction is exact.) *)
        if extracted > applied then
          violation
            (Printf.sprintf "conservation: extracted+drained %d > applied %d" extracted
               applied);
        (* Shed accounting, mid-flight (the loose direction; the exact
           identity is asserted at quiescence): terminal outcomes can
           never exceed admissions. *)
        let outcomes = c "rpc_completed_total" + refused_of c + c "rpc_dropped_total" in
        if outcomes > c "rpc_accepted_total" then
          violation
            (Printf.sprintf "shed accounting: %d outcomes > %d accepted" outcomes
               (c "rpc_accepted_total"));
        if extracted <> !last_progress then begin
          last_progress := extracted;
          anchor := now
        end;
        if SQ.length q = 0 then anchor := now;
        if now - !anchor > stale_ns then begin
          violation
            (Printf.sprintf
               "stale element: %d queued elements but no extraction progress in %.0f ms"
               (SQ.length q) cfg.stale_ms);
          anchor := now
        end;
        if now >= !next_beat then begin
          next_beat := now + 500_000_000;
          log ("heartbeat: " ^ record_counters c)
        end
      done;
      ignore (record_counters (counters ()));
      FP.Ctl.quiesce ()
    in
    let t0 = now_ns () in
    let mon = Domain.spawn monitor in
    let lg_base =
      {
        Zmsq_net.Loadgen.default_config with
        Zmsq_net.Loadgen.producers = cfg.producers;
        consumers = cfg.consumers;
        duration_s = dur *. 0.45;
        batch = 128;
        extract_n = 16;
        insert_budget_ns = 50_000_000;
        extract_budget_ns = 20_000_000;
        retry =
          {
            Zmsq_net.Retry.base_ns = 500_000;
            cap_ns = 20_000_000;
            max_attempts = 6;
            budget_ns = 150_000_000;
          };
        seed = cfg.seed + (index * 131);
      }
    in
    let addr = NetSrv.sockaddr srv in
    let clean = Zmsq_net.Loadgen.run { lg_base with Zmsq_net.Loadgen.fault = None } addr in
    let io_stats0 = FP.Ctl.stats () in
    install_faults cfg ~salt:0xC2B2 ~index ~io:true;
    let faulted =
      Zmsq_net.Loadgen.run
        {
          lg_base with
          Zmsq_net.Loadgen.seed = lg_base.Zmsq_net.Loadgen.seed + 77;
          fault = Some FP.Ctl.inject_io;
        }
        addr
    in
    let io_fired = diff_stats io_stats0 (FP.Ctl.stats ()) in
    Stdlib.Atomic.set stop_mon true;
    Domain.join mon;
    (* SIGTERM path: drain to exact emptiness end-to-end. *)
    NetSrv.shutdown srv;
    FP.Ctl.quiesce ();
    let seconds = float_of_int (now_ns () - t0) /. 1e9 in
    let c = counters () in
    let applied = c "elts_applied_total" in
    let extracted = c "elts_extracted_total" in
    let drained = c "elts_drained_shutdown_total" in
    if applied <> extracted + drained then
      violation
        (Printf.sprintf "conservation: applied %d <> extracted %d + drained %d" applied
           extracted drained);
    let outcomes = c "rpc_completed_total" + refused_of c + c "rpc_dropped_total" in
    if c "rpc_accepted_total" <> outcomes then
      violation
        (Printf.sprintf "shed accounting at quiescence: accepted %d <> outcomes %d"
           (c "rpc_accepted_total") outcomes);
    if SQ.lifecycle q <> Zmsq.Closed then violation "drain did not close the queue";
    Array.iteri
      (fun i sz ->
        if sz <> 0 then
          violation (Printf.sprintf "drain exactness: shard %d still holds %d elements" i sz))
      (SQ.shard_sizes q);
    if SQ.Debug.buffered q <> 0 then
      violation (Printf.sprintf "staged residue after drain: %d" (SQ.Debug.buffered q));
    if SQ.Debug.live_handles q <> 0 then
      violation
        (Printf.sprintf "handle registry leak: %d handles survive shutdown"
           (SQ.Debug.live_handles q));
    if
      refused_of c - c "rpc_deadline_expired_total" - c "rpc_closed_total"
      - c "rpc_bad_request_total"
      = 0
    then violation "overload never engaged the ladder (no throttle/shed/reject)";
    (let fired k = try List.assoc k io_fired with Not_found -> 0 in
     if
       f.io_short_1in > 0
       && fired "io_shorts" + fired "io_stalls" + fired "io_drops" + fired "io_torn" = 0
     then violation "wire faults armed but never fired");
    (* Retry-storm guard: backoff must absorb the shedding and the wire
       faults. Exact counts, not latency: every retry of either half must
       have waited at least the schedule's base delay. *)
    List.iter
      (fun (half, r) ->
        match Zmsq_net.Loadgen.retry_storm lg_base.Zmsq_net.Loadgen.retry r with
        | Some why -> violation (half ^ " half: " ^ why)
        | None -> ())
      [ ("clean", clean); ("faulted", faulted) ];
    let module Hist = Zmsq_util.Stats.Histogram in
    let clean_p99 = Hist.percentile clean.Zmsq_net.Loadgen.rpc_ns 99.0 in
    let faulted_p99 = Hist.percentile faulted.Zmsq_net.Loadgen.rpc_ns 99.0 in
    let violations, artifacts = finish () in
    log
      (Printf.sprintf
         "done in %.2fs: applied=%d extracted=%d drained=%d accepted=%d refused=%d \
          orphaned_conns=%d clean_p99=%.0fns faulted_p99=%.0fns retries=%d+%d gave_up=%d+%d \
          violations=%d"
         seconds applied extracted drained (c "rpc_accepted_total") (refused_of c)
         (c "conn_orphaned_total") clean_p99 faulted_p99 clean.Zmsq_net.Loadgen.retries
         faulted.Zmsq_net.Loadgen.retries clean.Zmsq_net.Loadgen.gave_up
         faulted.Zmsq_net.Loadgen.gave_up (List.length violations));
    let r =
      phase_report ~phase ~seconds ~inserted:applied ~extracted ~drained
        ~reclaimed:(SQ.Debug.counters q).Zmsq.orphan_reclaims
        ~eventcount:(SQ.Debug.eventcount_stats q) (SQ.shard_metrics q)
    in
    ({ r with violations }, artifacts)

  let run cfg =
    if cfg.producers < 1 || cfg.consumers < 1 then invalid_arg "Soak.run: need workers";
    if cfg.secs <= 0. then invalid_arg "Soak.run: secs must be positive";
    if cfg.phases = [] then invalid_arg "Soak.run: need at least one phase";
    if cfg.shards < 1 then invalid_arg "Soak.run: shards must be >= 1";
    let stats0 = FP.Ctl.stats () in
    let dur = cfg.secs /. float_of_int (List.length cfg.phases) in
    let phases, artifacts =
      List.split
        (List.mapi
           (fun index phase ->
             let last = Stdlib.Atomic.make "none recorded yet" in
             with_deadline ~phase ~seconds:(dur +. phase_grace_s) ~last (fun () ->
                 match phase with
                 | Shard_churn -> Shard_runner.run_phase cfg ~index ~phase ~dur ~last
                 | Server_overload -> run_server_phase cfg ~index ~phase ~dur ~last
                 | _ -> Single_runner.run_phase cfg ~index ~phase ~dur ~last))
           cfg.phases)
    in
    let fault_stats = diff_stats stats0 (FP.Ctl.stats ()) in
    FP.Ctl.reset ();
    let sum f = List.fold_left (fun acc p -> acc + f p) 0 phases in
    {
      phases;
      total_inserted = sum (fun p -> p.inserted);
      total_extracted = sum (fun p -> p.extracted);
      total_drained = sum (fun p -> p.drained);
      fault_stats;
      violations =
        List.concat_map
          (fun p -> List.map (fun v -> phase_name p.phase ^ ": " ^ v) p.violations)
          phases;
      artifacts = List.concat artifacts;
    }
end

include Make (functor (Q : Zmsq.SHARDED) -> Q)

let report_lines (r : report) =
  List.map
    (fun p ->
      Printf.sprintf
        "%-16s %5.2fs inserted=%-8d extracted=%-8d drained=%-6d reclaimed=%-4d \
         sleeps=%-6d wakes=%-6d qos=%-5d rank_err_max=%-3.0f rank_gap_p99=%-6.0f \
         sojourn_p99=%.0fns violations=%d"
        (phase_name p.phase) p.seconds p.inserted p.extracted p.drained p.reclaimed
        p.ec_sleeps p.ec_wakes p.qos_samples p.rank_err_max p.rank_gap_p99
        p.sojourn_p99_ns
        (List.length p.violations))
    r.phases
  @ [
      Printf.sprintf "totals: inserted=%d extracted=%d drained=%d" r.total_inserted
        r.total_extracted r.total_drained;
      "faults: "
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.fault_stats);
      (match r.violations with
      | [] -> "violations: none"
      | vs -> Printf.sprintf "violations: %d" (List.length vs));
    ]
