(* zmsq_cli — command-line driver for the ZMSQ reproduction.

   Subcommands:
     list                      enumerate experiments and queue names
     bench [IDS...]            run registered experiments (default: all)
     throughput ...            one-off throughput measurement
     accuracy ...              one-off accuracy measurement
     sssp ...                  parallel SSSP on a generated graph
     stats ...                 live metrics reporter over a mixed workload
     trace ...                 record a Chrome trace of a mixed workload *)

open Cmdliner

let queue_arg =
  let doc =
    Printf.sprintf "Queue implementation: %s." (String.concat ", " Zmsq_harness.Instances.names)
  in
  Arg.(value & opt string "zmsq" & info [ "q"; "queue" ] ~docv:"QUEUE" ~doc)

let threads_arg =
  Arg.(value & opt int 4 & info [ "t"; "threads" ] ~docv:"N" ~doc:"Worker domains.")

let batch_arg =
  Arg.(value & opt (some int) None & info [ "batch" ] ~docv:"B" ~doc:"ZMSQ batch (relaxation).")

let target_len_arg =
  Arg.(value & opt (some int) None & info [ "target-len" ] ~docv:"L" ~doc:"ZMSQ target set size.")

let buffer_len_arg =
  Arg.(value & opt (some int) None
       & info [ "buffer-len" ] ~docv:"L"
           ~doc:"ZMSQ per-handle insert buffer capacity (0, the default, disables buffering).")

let shards_arg =
  Arg.(value & opt (some int) None
       & info [ "shards" ] ~docv:"N"
           ~doc:"ZMSQ shard count (routes the plain \"zmsq\" queue through zmsq-shard when > 1).")

let factory_of ~queue ~batch ~target_len ~buffer_len ~shards =
  (* `--shards N` on the default queue means "the sharded build", so users
     do not have to spell -q zmsq-shard as well. *)
  let queue =
    match (queue, shards) with "zmsq", Some s when s > 1 -> "zmsq-shard" | _ -> queue
  in
  match queue with
  | "zmsq" | "zmsq-list" | "zmsq-leak" | "zmsq-tas" | "zmsq-mutex" | "zmsq-shard" ->
      let params =
        Zmsq.Params.default
        |> (match batch with Some b -> Zmsq.Params.with_batch b | None -> Fun.id)
        |> (match target_len with Some l -> Zmsq.Params.with_target_len l | None -> Fun.id)
        |> (match buffer_len with Some l -> Zmsq.Params.with_buffer_len l | None -> Fun.id)
        |> match shards with Some s -> Zmsq.Params.with_shards s | None -> Fun.id
      in
      (match queue with
      | "zmsq" -> Zmsq_harness.Instances.zmsq ~params ()
      | "zmsq-list" -> Zmsq_harness.Instances.zmsq_list ~params ()
      | "zmsq-leak" -> Zmsq_harness.Instances.zmsq_leak ~params ()
      | "zmsq-tas" -> Zmsq_harness.Instances.zmsq_tas ~params ()
      | "zmsq-shard" -> Zmsq_harness.Instances.zmsq_shard ~params ()
      | _ -> Zmsq_harness.Instances.zmsq_mutex ~params ())
  | _ -> Zmsq_harness.Instances.by_name queue

(* {2 list} *)

let list_cmd =
  let run () =
    Printf.printf "experiments:\n";
    List.iter
      (fun e ->
        Printf.printf "  %-10s %-45s [%s]\n" e.Zmsq_harness.Experiments.id
          e.Zmsq_harness.Experiments.title e.Zmsq_harness.Experiments.paper)
      Zmsq_harness.Experiments.all;
    Printf.printf "\nqueues:\n  %s\n" (String.concat "\n  " Zmsq_harness.Instances.names)
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiments and queue implementations")
    Term.(const run $ const ())

(* {2 bench} *)

let bench_cmd =
  let ids_arg = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.") in
  let run ids =
    let ids =
      if ids = [] then List.map (fun e -> e.Zmsq_harness.Experiments.id) Zmsq_harness.Experiments.all
      else ids
    in
    List.iter
      (fun id ->
        match Zmsq_harness.Experiments.find id with
        | Some e -> Zmsq_harness.Experiments.run_one e
        | None -> Printf.eprintf "unknown experiment %S (see `zmsq_cli list`)\n" id)
      ids
  in
  Cmd.v (Cmd.info "bench" ~doc:"Run paper experiments (all when no id given)")
    Term.(const run $ ids_arg)

(* {2 throughput} *)

let throughput_cmd =
  let ops = Arg.(value & opt int 500_000 & info [ "ops" ] ~docv:"N" ~doc:"Total operations.") in
  let mix =
    Arg.(value & opt int 500 & info [ "insert-permil" ] ~docv:"P" ~doc:"Insert fraction, per mille.")
  in
  let preload = Arg.(value & opt int 0 & info [ "preload" ] ~docv:"N" ~doc:"Initial elements.") in
  let run queue threads batch target_len buffer_len shards ops mix preload =
    let factory = factory_of ~queue ~batch ~target_len ~buffer_len ~shards in
    let spec =
      {
        Zmsq_harness.Throughput.default_spec with
        Zmsq_harness.Throughput.total_ops = ops;
        insert_permil = mix;
        preload;
        threads;
      }
    in
    let mops = Zmsq_harness.Throughput.run factory spec in
    Printf.printf "%s: %.3f Mops/s (%d ops, %d threads, %d/1000 inserts, %d preloaded)\n" queue
      mops ops threads mix preload
  in
  Cmd.v (Cmd.info "throughput" ~doc:"Measure mixed insert/extract throughput")
    Term.(
      const run $ queue_arg $ threads_arg $ batch_arg $ target_len_arg $ buffer_len_arg
      $ shards_arg $ ops $ mix $ preload)

(* {2 accuracy} *)

let accuracy_cmd =
  let qsize = Arg.(value & opt int 65536 & info [ "qsize" ] ~docv:"N" ~doc:"Initial queue size.") in
  let extracts = Arg.(value & opt int 6553 & info [ "extracts" ] ~docv:"N" ~doc:"Extractions.") in
  let run queue threads batch target_len buffer_len shards qsize extracts =
    let factory = factory_of ~queue ~batch ~target_len ~buffer_len ~shards in
    let pct =
      Zmsq_harness.Accuracy.run factory
        { Zmsq_harness.Accuracy.qsize; extracts; threads; seed = 0xACC }
    in
    Printf.printf "%s: %.1f%% of %d extractions were in the true top-%d (queue of %d)\n" queue pct
      extracts extracts qsize
  in
  Cmd.v (Cmd.info "accuracy" ~doc:"Measure extraction accuracy (Table 1 protocol)")
    Term.(
      const run $ queue_arg $ threads_arg $ batch_arg $ target_len_arg $ buffer_len_arg
      $ shards_arg $ qsize $ extracts)

(* {2 sssp} *)

let sssp_cmd =
  let graph_arg =
    Arg.(value & opt string "artist"
         & info [ "g"; "graph" ] ~docv:"GRAPH"
             ~doc:"artist | politician | livejournal | grid | er | ba:<n>:<m>")
  in
  let check = Arg.(value & flag & info [ "check" ] ~doc:"Validate against Dijkstra.") in
  let run queue threads batch target_len buffer_len shards graph check =
    let rng = Zmsq_util.Rng.create ~seed:0x6EA () in
    let g =
      match String.split_on_char ':' graph with
      | [ "artist" ] -> Zmsq_graph.Gen.artist rng
      | [ "politician" ] -> Zmsq_graph.Gen.politician rng
      | [ "livejournal" ] -> Zmsq_graph.Gen.livejournal rng
      | [ "grid" ] -> Zmsq_graph.Gen.grid ~n_side:300 ~max_weight:100 rng
      | [ "er" ] -> Zmsq_graph.Gen.erdos_renyi rng ~n:100_000 ~avg_degree:8.0 ~max_weight:100
      | [ "ba"; n; m ] ->
          Zmsq_graph.Gen.barabasi_albert rng ~n:(int_of_string n) ~m:(int_of_string m)
            ~max_weight:100
      | _ -> failwith ("unknown graph spec: " ^ graph)
    in
    let factory = factory_of ~queue ~batch ~target_len ~buffer_len ~shards in
    let dist, st = Zmsq_harness.Sssp.run_checked ~check factory ~graph:g ~threads in
    let reached = Array.fold_left (fun a d -> if d < Zmsq_graph.Dijkstra.infinity_dist then a + 1 else a) 0 dist in
    Printf.printf
      "%s on %s: %.3f s wall, %d pops (%d stale), %d relaxations, %d/%d vertices reached%s\n"
      queue graph st.Zmsq_graph.Sssp_parallel.wall_seconds st.Zmsq_graph.Sssp_parallel.pops
      st.Zmsq_graph.Sssp_parallel.stale st.Zmsq_graph.Sssp_parallel.relaxations reached
      (Zmsq_graph.Csr.n_vertices g)
      (if check then " [validated]" else "")
  in
  Cmd.v (Cmd.info "sssp" ~doc:"Run parallel SSSP on a generated graph")
    Term.(
      const run $ queue_arg $ threads_arg $ batch_arg $ target_len_arg $ buffer_len_arg
      $ shards_arg $ graph_arg $ check)

(* {2 knapsack} *)

let knapsack_cmd =
  let items = Arg.(value & opt int 36 & info [ "items" ] ~docv:"N" ~doc:"Number of items.") in
  let run queue threads batch target_len buffer_len shards items =
    let rng = Zmsq_util.Rng.create ~seed:0xCAFE () in
    let inst = Zmsq_apps.Knapsack.generate rng ~n:items ~tightness:0.35 () in
    let opt = Zmsq_apps.Knapsack.solve_dp inst in
    let factory = factory_of ~queue ~batch ~target_len ~buffer_len ~shards in
    let v, st = Zmsq_apps.Knapsack.solve_bb (factory ()) inst ~threads in
    Printf.printf
      "%s: value %d (dp oracle %d, %s) in %.3f s — %d explored, %d pruned\n" queue v opt
      (if v = opt then "exact" else "WRONG")
      st.Zmsq_apps.Knapsack.wall_seconds st.Zmsq_apps.Knapsack.explored
      st.Zmsq_apps.Knapsack.pruned;
    if v <> opt then exit 1
  in
  Cmd.v (Cmd.info "knapsack" ~doc:"Parallel branch-and-bound knapsack (validated against DP)")
    Term.(
      const run $ queue_arg $ threads_arg $ batch_arg $ target_len_arg $ buffer_len_arg
      $ shards_arg $ items)

(* {2 linearize} *)

let linearize_cmd =
  let rounds = Arg.(value & opt int 20 & info [ "rounds" ] ~docv:"N" ~doc:"Histories to check.") in
  let ops = Arg.(value & opt int 6 & info [ "ops" ] ~docv:"N" ~doc:"Ops per thread per history.") in
  let run queue threads batch target_len buffer_len shards rounds ops =
    let target_len = target_len in
    let batch = match batch with Some b -> Some b | None -> Some 0 (* strict by default *) in
    let factory = factory_of ~queue ~batch ~target_len ~buffer_len ~shards in
    let failures = ref 0 in
    for round = 1 to rounds do
      let inst = factory () in
      let module I = (val inst : Zmsq_pq.Intf.INSTANCE) in
      let history =
        Zmsq_harness.Linearize.record (module I) ~threads ~ops_per_thread:ops
          ~seed:(round * 7919)
      in
      if not (Zmsq_harness.Linearize.check history) then begin
        incr failures;
        Printf.printf "round %d: NOT linearizable as a strict max-queue\n" round
      end
    done;
    if !failures = 0 then
      Printf.printf "%s: %d histories (%d threads x %d ops) all linearizable\n" queue rounds
        threads ops
    else begin
      Printf.printf "%s: %d/%d histories failed (expected for relaxed configs)\n" queue !failures
        rounds;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "linearize"
       ~doc:"Check recorded concurrent histories against the strict max-queue specification")
    Term.(
      const run $ queue_arg $ threads_arg $ batch_arg $ target_len_arg $ buffer_len_arg
      $ shards_arg $ rounds $ ops)

(* {2 stats / trace}

   Both drive the default ZMSQ build directly (they expose its [metrics]
   / [trace] accessors, which the generic INSTANCE interface hides). *)

module DQ = Zmsq.Default

let zmsq_params ~batch ~target_len ~buffer_len ~obs =
  Zmsq.Params.default
  |> (match batch with Some b -> Zmsq.Params.with_batch b | None -> Fun.id)
  |> (match target_len with Some l -> Zmsq.Params.with_target_len l | None -> Fun.id)
  |> (match buffer_len with Some l -> Zmsq.Params.with_buffer_len l | None -> Fun.id)
  |> Zmsq.Params.with_obs obs

(* [threads] domains each run [ops / threads] 50/50 insert/extract
   operations; [finished] counts completed workers so a reporter loop can
   poll without joining. *)
let spawn_mixed_workers q ~threads ~ops ~finished =
  let per = max 1 (ops / max 1 threads) in
  List.init threads (fun i ->
      Domain.spawn (fun () ->
          let h = DQ.register q in
          let rng = Zmsq_util.Rng.create ~seed:(0x57A7 + (i * 7919)) () in
          for _ = 1 to per do
            if Zmsq_util.Rng.int rng 1000 < 500 then
              DQ.insert h (Zmsq_pq.Elt.of_priority (Zmsq_util.Rng.int rng (1 lsl 20)))
            else ignore (DQ.extract h)
          done;
          (* unregister flushes any buffered backlog and frees the HP slot *)
          DQ.unregister h;
          Atomic.incr finished))

(* {2 The --watch dashboard}

   Full-screen rendering of one snapshot per tick: counters become
   per-second rates (delta against the previous snapshot over the
   snapshot-timestamp delta), gauges print as-is, histograms get the
   p50/p99/p999/max tail columns. Plain ANSI, no dependencies. *)
let render_watch ~elapsed ~prev (snap : Zmsq_obs.Metrics.snapshot) =
  let module H = Zmsq_util.Stats.Histogram in
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  (* Rate denominator from the snapshots' own monotonic timestamps. *)
  let dt =
    match prev with
    | None -> 0.0
    | Some (p : Zmsq_obs.Metrics.snapshot) ->
        float_of_int (snap.Zmsq_obs.Metrics.taken_ns - p.Zmsq_obs.Metrics.taken_ns) /. 1e9
  in
  let prev_counter name =
    match prev with
    | None -> 0
    | Some p -> ( match List.assoc_opt name p.Zmsq_obs.Metrics.counters with
                  | Some v -> v
                  | None -> 0)
  in
  line "zmsq stats --watch   elapsed %6.1fs" elapsed;
  line "";
  line "%-32s %14s %12s" "COUNTER" "total" "rate/s";
  List.iter
    (fun (name, v) ->
      let rate = if dt > 0.0 then float_of_int (v - prev_counter name) /. dt else 0.0 in
      line "%-32s %14d %12.0f" name v rate)
    snap.Zmsq_obs.Metrics.counters;
  line "";
  line "%-32s %14s" "GAUGE" "value";
  List.iter (fun (name, v) -> line "%-32s %14d" name v) snap.Zmsq_obs.Metrics.gauges;
  if snap.Zmsq_obs.Metrics.hists <> [] then begin
    line "";
    line "%-20s %10s %10s %10s %10s %10s %10s" "HISTOGRAM" "count" "mean" "p50" "p99" "p999"
      "max";
    List.iter
      (fun (name, h) ->
        line "%-20s %10d %10.0f %10.0f %10.0f %10.0f %10.0f" name (H.count h) (H.mean h)
          (H.percentile h 50.0) (H.percentile h 99.0) (H.p999 h) (H.max_value h))
      snap.Zmsq_obs.Metrics.hists
  end;
  (* Clear screen + home, then the frame in one write to avoid flicker. *)
  print_string "\027[2J\027[H";
  print_string (Buffer.contents buf);
  flush stdout

let stats_cmd =
  let ops = Arg.(value & opt int 1_000_000 & info [ "ops" ] ~docv:"N" ~doc:"Total operations.") in
  let interval =
    Arg.(value & opt float 0.5 & info [ "interval" ] ~docv:"S" ~doc:"Reporter period, seconds.")
  in
  let jsonl =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE" ~doc:"Append one snapshot line per tick to $(docv).")
  in
  let prom =
    Arg.(value & opt (some string) None
         & info [ "prom" ] ~docv:"FILE"
             ~doc:"Write the final Prometheus exposition to $(docv) instead of stdout.")
  in
  let full =
    Arg.(value & flag
         & info [ "full" ] ~doc:"Obs level Full: latency histograms and trace ring, not just counters.")
  in
  let watch =
    Arg.(value & flag
         & info [ "watch" ]
             ~doc:"Live full-screen dashboard per tick (rates, gauges, p50/p99/p999/max columns) \
                   instead of one brief line. Implies $(b,--full) so the tail columns fill.")
  in
  let run threads batch target_len buffer_len ops interval jsonl prom full watch =
    let obs = if full || watch then Zmsq_obs.Level.Full else Zmsq_obs.Level.Counters in
    let q = DQ.create ~params:(zmsq_params ~batch ~target_len ~buffer_len ~obs) () in
    let finished = Atomic.make 0 in
    let t0 = Unix.gettimeofday () in
    let doms = spawn_mixed_workers q ~threads ~ops ~finished in
    let prev = ref None in
    let report () =
      let snap = Zmsq_obs.Metrics.snapshot (DQ.metrics q) in
      let elapsed = Unix.gettimeofday () -. t0 in
      if watch then render_watch ~elapsed ~prev:!prev snap
      else Printf.printf "[%6.2fs] %s\n%!" elapsed (Zmsq_obs.Export.brief snap);
      prev := Some snap;
      (match jsonl with Some p -> Zmsq_obs.Export.append_jsonl ~path:p snap | None -> ());
      snap
    in
    while Atomic.get finished < threads do
      Unix.sleepf interval;
      ignore (report ())
    done;
    List.iter Domain.join doms;
    let snap = report () in
    match prom with
    | Some p ->
        let path = Zmsq_obs.Export.write_file ~path:p (Zmsq_obs.Export.prometheus snap) in
        Printf.printf "prometheus exposition: %s\n" path
    | None -> if not watch then print_string (Zmsq_obs.Export.prometheus snap)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a mixed workload while periodically printing live metric snapshots")
    Term.(
      const run $ threads_arg $ batch_arg $ target_len_arg $ buffer_len_arg $ ops $ interval
      $ jsonl $ prom $ full $ watch)

let trace_cmd =
  let ops = Arg.(value & opt int 200_000 & info [ "ops" ] ~docv:"N" ~doc:"Total operations.") in
  let out =
    Arg.(value & opt string "results/trace.json"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Chrome trace destination.")
  in
  let run threads batch target_len buffer_len ops out =
    (* Shift 0: per-op spans on every operation — a trace capture wants
       density, not the production sampling rate. *)
    let params =
      zmsq_params ~batch ~target_len ~buffer_len ~obs:Zmsq_obs.Level.Full
      |> Zmsq.Params.with_obs_sample 0
    in
    let q = DQ.create ~params () in
    let finished = Atomic.make 0 in
    let doms = spawn_mixed_workers q ~threads ~ops ~finished in
    List.iter Domain.join doms;
    match DQ.trace q with
    | None ->
        prerr_endline "trace ring absent (obs level is not Full)";
        exit 1
    | Some tr ->
        let path = Zmsq_obs.Trace.save ~path:out tr in
        Printf.printf "wrote %s: %d events retained, %d overwritten — open in chrome://tracing\n"
          path (Zmsq_obs.Trace.recorded tr) (Zmsq_obs.Trace.dropped tr)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Record a mixed workload at obs level Full and dump a Chrome trace_event JSON")
    Term.(const run $ threads_arg $ batch_arg $ target_len_arg $ buffer_len_arg $ ops $ out)

(* {2 drain}

   Lifecycle demonstration: runs a short buffered workload, deliberately
   abandons one handle with staged elements (simulating a crashed
   producer that never unregistered), then closes with ~drain:true and
   drains to empty — orphan reclamation included — reporting the
   residual element count, reclaim counters and the final lifecycle. *)

let drain_cmd =
  let ops = Arg.(value & opt int 100_000 & info [ "ops" ] ~docv:"N" ~doc:"Workload inserts.") in
  let abandoned =
    Arg.(value & opt int 5
         & info [ "abandoned" ] ~docv:"N"
             ~doc:"Elements staged on a handle that is orphaned, never unregistered.")
  in
  let run threads batch target_len buffer_len ops abandoned =
    (* buffering on by default here: staged residue is the point *)
    let buffer_len = match buffer_len with Some l -> Some l | None -> Some 64 in
    let q =
      DQ.create
        ~params:(zmsq_params ~batch ~target_len ~buffer_len ~obs:Zmsq_obs.Level.Counters)
        ()
    in
    let finished = Atomic.make 0 in
    let doms = spawn_mixed_workers q ~threads ~ops ~finished in
    (* The "crashed" producer: stages elements, then goes away without
       unregistering. [orphan] is what a supervisor would call on it. *)
    let dead = DQ.register q in
    for i = 1 to abandoned do
      DQ.insert dead (Zmsq_pq.Elt.of_priority i)
    done;
    DQ.orphan dead;
    List.iter Domain.join doms;
    let buffered_before = DQ.Debug.buffered q in
    DQ.close ~drain:true q;
    let show l =
      match l with Zmsq.Open -> "open" | Zmsq.Draining -> "draining" | Zmsq.Closed -> "closed"
    in
    Printf.printf "close ~drain:true: lifecycle=%s published=%d buffered=%d\n%!"
      (show (DQ.lifecycle q))
      (List.length (DQ.Debug.elements q))
      buffered_before;
    let h = DQ.register q in
    let residual = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let e = DQ.extract h in
      if Zmsq_pq.Elt.is_none e then continue_ := false else incr residual
    done;
    DQ.unregister h;
    let c = DQ.Debug.counters q in
    Printf.printf "drained %d residual elements; reclaimed %d orphaned handle(s)\n"
      !residual c.Zmsq.orphan_reclaims;
    Printf.printf "final: lifecycle=%s empty=%b buffered=%d live_handles=%d\n"
      (show (DQ.lifecycle q)) (DQ.is_empty q) (DQ.Debug.buffered q)
      (DQ.Debug.live_handles q);
    if DQ.lifecycle q <> Zmsq.Closed || DQ.Debug.buffered q <> 0
       || DQ.Debug.live_handles q <> 0
    then begin
      prerr_endline "drain FAILED: queue did not reach closed/empty/no-handles";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "drain"
       ~doc:"Close a live queue with ~drain:true and drain it to empty, reclaiming an \
             abandoned handle's staged elements along the way")
    Term.(
      const run $ threads_arg $ batch_arg $ target_len_arg $ buffer_len_arg $ ops $ abandoned)

let () =
  let info = Cmd.info "zmsq_cli" ~doc:"ZMSQ relaxed priority queue — reproduction driver" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; bench_cmd; throughput_cmd; accuracy_cmd; sssp_cmd; knapsack_cmd;
            linearize_cmd; stats_cmd; trace_cmd; drain_cmd;
          ]))
