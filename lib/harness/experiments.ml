module Keys = Zmsq_dist.Keys
module Env = Zmsq_util.Env
module P = Zmsq.Params

type t = { id : string; title : string; paper : string; run : unit -> Table.t list }

(* {2 Scaling helpers} *)

let scale () = Env.bench_scale ()
let scaled n = max 1000 (int_of_float (float_of_int n *. scale ()))
let threads () = Env.bench_threads ()
let repeats () = Env.int "ZMSQ_BENCH_RUNS" ~default:3

let normal_keys =
  Keys.Normal { mean = 524288.0; stddev = 65536.0; max_key = (1 lsl 20) - 1 }

let uniform_keys = Keys.Uniform { bits = 20 }

let row_f label values = label :: List.map Table.cell_f values

(* {2 Figure 2 — lock implementations} *)

let lock_factories params =
  [
    ("mutex", Instances.zmsq_mutex ~params ());
    ("tas", Instances.zmsq_tas ~params ());
    ("tatas", Instances.zmsq_list ~params ());
  ]

let fig2 ~insert_permil ~preload ~id ~title () =
  let params = P.static 32 in
  let ops = scaled 1_000_000 in
  let rows =
    List.map
      (fun t ->
        let spec =
          {
            Throughput.default_spec with
            Throughput.total_ops = ops;
            insert_permil;
            preload = (if preload then ops else 0);
            keys = normal_keys;
            threads = t;
          }
        in
        row_f (string_of_int t)
          (List.map (fun (_, f) -> Throughput.run_avg ~repeats:(repeats ()) f spec) (lock_factories params)))
      (threads ())
  in
  [
    Table.make ~id ~title
      ~notes:
        [
          Printf.sprintf "%d ops, batch=32 target_len=32, normal keys%s" ops
            (if preload then Printf.sprintf ", %d preloaded" ops else ", empty start");
          "values: Mops/s (higher is better)";
        ]
      ~header:[ "threads"; "mutex"; "tas"; "tatas" ]
      rows;
  ]

(* {2 Figure 3 — batch and target_len configurations} *)

let fig3_configs t =
  [
    ("dyn(1:1)", P.dynamic ~ratio_num:1 ~ratio_den:1 ~threads:t);
    ("dyn(1:1.5)", P.dynamic ~ratio_num:2 ~ratio_den:3 ~threads:t);
    ("dyn(1:2)", P.dynamic ~ratio_num:1 ~ratio_den:2 ~threads:t);
    ("dyn(2:1)", P.dynamic ~ratio_num:2 ~ratio_den:1 ~threads:t);
    ("static32", P.static 32);
    ("static64", P.static 64);
    ("static96", P.static 96);
  ]

let fig3 ~insert_permil ~preload ~id ~title () =
  let ops = scaled 1_000_000 in
  let headers = List.map fst (fig3_configs 1) in
  let rows =
    List.map
      (fun t ->
        let spec =
          {
            Throughput.default_spec with
            Throughput.total_ops = ops;
            insert_permil;
            preload = (if preload then ops else 0);
            keys = normal_keys;
            threads = t;
          }
        in
        row_f (string_of_int t)
          (List.map
             (fun (_, params) -> Throughput.run_avg ~repeats:(repeats ()) (Instances.zmsq ~params ()) spec)
             (fig3_configs t)))
      (threads ())
  in
  [
    Table.make ~id ~title
      ~notes:
        [
          Printf.sprintf "%d ops%s; dynamic configs: min(batch,target_len) = thread count" ops
            (if preload then ", preloaded" else ", empty start");
          "values: Mops/s";
        ]
      ~header:("threads" :: headers)
      rows;
  ]

(* {2 Table 1 — accuracy} *)

let zmsq_accuracy_factory batch =
  Instances.zmsq ~params:P.(default |> with_batch batch |> with_target_len 64) ()

let table1 ~qsize ~extract_counts ~id ~title () =
  let reps = if scale () >= 1.0 then repeats () else if qsize > 10_000 then 1 else 3 in
  let batches = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let spray_threads = [ 1; 2; 4; 8; 16; 32 ] in
  let measure factory t_ =
    List.map
      (fun extracts ->
        Accuracy.run_avg ~repeats:reps factory { Accuracy.qsize; extracts; threads = t_; seed = 0xACC })
      extract_counts
  in
  let header =
    "config"
    :: List.map
         (fun e -> Printf.sprintf "top %.3g%% (%d)" (float_of_int e /. float_of_int qsize *. 100.0) e)
         extract_counts
  in
  let zmsq_rows =
    List.map (fun b -> row_f (Printf.sprintf "zmsq batch=%d" b) (measure (zmsq_accuracy_factory b) 1)) batches
  in
  let spray_rows =
    List.map (fun t_ -> row_f (Printf.sprintf "spraylist T=%d" t_) (measure Instances.spraylist t_)) spray_threads
  in
  let fifo_row =
    row_f "fifo"
      (List.map
         (fun extracts ->
           Accuracy.fifo_baseline { Accuracy.qsize; extracts; threads = 1; seed = 0xACC })
         extract_counts)
  in
  [
    Table.make ~id ~title
      ~notes:
        [
          Printf.sprintf "queue preloaded with %d distinct keys; %% of extractions in true top-k" qsize;
          "zmsq: target_len=64, single thread (accuracy depends only on batch)";
          "spraylist: T concurrent extractors (accuracy degrades with T)";
        ]
      ~header
      (zmsq_rows @ spray_rows @ [ fifo_row ]);
  ]

(* {2 Figure 4 — blocking} *)

let fig4 () =
  let handoffs = scaled 1_000_000 in
  let producers = Env.int "ZMSQ_BENCH_PRODUCERS" ~default:4 in
  let consumers = Env.int_list "ZMSQ_BENCH_CONSUMERS" ~default:[ 2; 4; 8; 16 ] in
  let runs =
    List.map
      (fun c ->
        let spec = { Handoff.producers; consumers = c; handoffs; batch = 32; seed = 0xF4 } in
        (c, Handoff.run Handoff.Spin spec, Handoff.run Handoff.Block spec))
      consumers
  in
  let lat_rows =
    List.map
      (fun (c, spin, block) ->
        [
          Table.cell_i c;
          Table.cell_f spin.Handoff.mean_latency_ns;
          Table.cell_f block.Handoff.mean_latency_ns;
          Table.cell_f spin.Handoff.p99_latency_ns;
          Table.cell_f block.Handoff.p99_latency_ns;
          Table.cell_f spin.Handoff.p999_latency_ns;
          Table.cell_f block.Handoff.p999_latency_ns;
          Table.cell_f spin.Handoff.max_latency_ns;
          Table.cell_f block.Handoff.max_latency_ns;
          Table.cell_i block.Handoff.sleeps;
        ])
      runs
  in
  let cpu_rows =
    List.map
      (fun (c, spin, block) ->
        [
          Table.cell_i c;
          Table.cell_f spin.Handoff.cpu_seconds;
          Table.cell_f block.Handoff.cpu_seconds;
          Table.cell_f spin.Handoff.wall_seconds;
          Table.cell_f block.Handoff.wall_seconds;
        ])
      runs
  in
  [
    Table.make ~id:"fig4a" ~title:"handoff latency: spin vs block"
      ~notes:
        [
          Printf.sprintf "%d producers, %d handoffs, zmsq batch=32, empty start" producers handoffs;
          "values: ns per handoff (insert -> successful extract)";
        ]
      ~header:
        [
          "consumers";
          "spin mean";
          "block mean";
          "spin p99";
          "block p99";
          "spin p999";
          "block p999";
          "spin max";
          "block max";
          "futex sleeps";
        ]
      lat_rows;
    Table.make ~id:"fig4b" ~title:"CPU time: spin vs block"
      ~notes:[ "values: process CPU seconds (user+sys) for the whole transfer" ]
      ~header:[ "consumers"; "spin cpu"; "block cpu"; "spin wall"; "block wall" ]
      cpu_rows;
  ]

(* {2 Figure 5 — microbenchmark throughput} *)

let fig5_queues () =
  let params = P.(default |> with_batch 48 |> with_target_len 72) in
  [
    ("spraylist", Instances.spraylist);
    ("mound", Instances.mound);
    ("zmsq", Instances.zmsq_list ~params ());
    ("zmsq(array)", Instances.zmsq ~params:{ params with P.hazards = true } ());
    ("zmsq(leak)", Instances.zmsq_leak ~params ());
  ]

let fig5 ~insert_permil ~preload ~keys ~id ~title () =
  let ops = scaled 2_000_000 in
  let queues = fig5_queues () in
  let rows =
    List.map
      (fun t ->
        let spec =
          {
            Throughput.default_spec with
            Throughput.total_ops = ops;
            insert_permil;
            preload = (if preload then ops / 2 else 0);
            keys;
            threads = t;
          }
        in
        row_f (string_of_int t)
          (List.map (fun (_, f) -> Throughput.run_avg ~repeats:(repeats ()) f spec) queues))
      (threads ())
  in
  [
    Table.make ~id ~title
      ~notes:
        [
          Printf.sprintf "%d ops, zmsq batch=48 target_len=72%s" ops
            (if preload then ", preloaded" else ", empty start");
          "values: Mops/s";
        ]
      ~header:("threads" :: List.map fst queues)
      rows;
  ]

(* {2 Figure 6 — producer/consumer ratios} *)

let fig6 () =
  let items = scaled 1_000_000 in
  let ratios = [ (1, 1); (2, 2); (4, 4); (2, 6); (6, 2); (1, 7); (7, 1) ] in
  let params = P.(default |> with_batch 48 |> with_target_len 72) in
  let queues =
    [ ("zmsq", Instances.zmsq ~params ()); ("mound", Instances.mound); ("spraylist", Instances.spraylist) ]
  in
  let rows =
    List.map
      (fun (p, c) ->
        Printf.sprintf "%dp/%dc" p c
        :: List.map
             (fun (_, f) ->
               let r =
                 Pc.run_avg ~repeats:(repeats ()) f
                   { Pc.producers = p; consumers = c; items; seed = 0xF6 }
               in
               Table.cell_f (r.Pc.transfers_per_sec /. 1e6))
             queues)
      ratios
  in
  [
    Table.make ~id:"fig6" ~title:"producer/consumer transfer throughput"
      ~notes:
        [
          Printf.sprintf "%d items through an initially empty queue; blocking disabled" items;
          "values: M transfers/s (higher is better)";
        ]
      ~header:("ratio" :: List.map fst queues)
      rows;
  ]

(* {2 Figures 7 and 8 — SSSP} *)

let sssp_queues () =
  let params = P.(default |> with_batch 42 |> with_target_len 64) in
  [
    ("zmsq", Instances.zmsq_list ~params ());
    ("zmsq(array)", Instances.zmsq ~params:{ params with P.hazards = true } ());
    ("zmsq(leak)", Instances.zmsq_leak ~params ());
    ("spraylist", Instances.spraylist);
    ("mound", Instances.mound);
  ]

let sssp_table ~id ~title graph =
  let queues = sssp_queues () in
  let rows =
    List.map
      (fun t ->
        row_f (string_of_int t)
          (List.map
             (fun (_, f) ->
               let _, st = Sssp.run_checked f ~graph ~threads:t in
               st.Zmsq_graph.Sssp_parallel.wall_seconds *. 1000.0)
             queues))
      (threads ())
  in
  Table.make ~id ~title
    ~notes:
      [
        Printf.sprintf "graph: %d vertices, %d edges (BA stand-in; see DESIGN.md)"
          (Zmsq_graph.Csr.n_vertices graph)
          (Zmsq_graph.Csr.n_edges graph);
        "zmsq batch=42 target_len=64; values: milliseconds (lower is better)";
      ]
    ~header:("threads" :: List.map fst queues)
    rows

let fig7 () =
  let rng = Zmsq_util.Rng.create ~seed:0xF7 () in
  let artist = Zmsq_graph.Gen.artist rng in
  let politician = Zmsq_graph.Gen.politician rng in
  [
    sssp_table ~id:"fig7a" ~title:"SSSP on Artist (50K nodes)" artist;
    sssp_table ~id:"fig7b" ~title:"SSSP on Politician (6K nodes)" politician;
  ]

let fig8_configs =
  [ (8, 12); (16, 24); (32, 48); (42, 64); (48, 72); (64, 96); (32, 32) ]

let fig8 () =
  let rng = Zmsq_util.Rng.create ~seed:0xF8 () in
  let nodes =
    Env.int "ZMSQ_LJ_NODES"
      ~default:(min 1_000_000 (max 60_000 (int_of_float (2_000_000.0 *. scale ()))))
  in
  let graph = Zmsq_graph.Gen.livejournal ~nodes rng in
  (* The tuning comparison is across configs at a fixed thread count; in
     quick mode pick a modest one so 11 SSSP runs stay affordable. *)
  let sweep = if scale () >= 1.0 then threads () else [ 2 ] in
  let configs =
    List.map
      (fun (b, tl) ->
        (Printf.sprintf "zmsq(%d,%d)" b tl, Instances.zmsq_list ~params:P.(default |> with_batch b |> with_target_len tl) ()))
      fig8_configs
    @ [
        ("zmsq-leak(42,64)", Instances.zmsq_leak ~params:P.(default |> with_batch 42 |> with_target_len 64) ());
        ( "zmsq-array(42,64)",
          Instances.zmsq
            ~params:{ P.(default |> with_batch 42 |> with_target_len 64) with P.hazards = true }
            () );
        ("spraylist", Instances.spraylist);
        ("mound", Instances.mound);
      ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        name
        :: List.map
             (fun t ->
               let _, st = Sssp.run_checked f ~graph ~threads:t in
               Table.cell_f (st.Zmsq_graph.Sssp_parallel.wall_seconds *. 1000.0))
             sweep)
      configs
  in
  [
    Table.make ~id:"fig8" ~title:"SSSP tuning on LiveJournal stand-in"
      ~notes:
        [
          Printf.sprintf "graph: %d vertices, %d edges (paper: 3.8M-node LiveJournal)"
            (Zmsq_graph.Csr.n_vertices graph)
            (Zmsq_graph.Csr.n_edges graph);
          "values: milliseconds";
        ]
      ~header:("config" :: List.map string_of_int sweep)
      rows;
  ]

(* {2 Set-size stability (Section 3.2 claim)} *)

let stable () =
  let module Q = Zmsq.Default in
  let params = P.static 32 in
  let q = Q.create ~params () in
  let h = Q.register q in
  let rng = Zmsq_util.Rng.create ~seed:0x57AB () in
  let g = Keys.make rng normal_keys in
  let init = scaled 1_000_000 in
  let pairs = scaled 8_000_000 in
  let stats () =
    let counts = Q.Debug.node_counts q in
    let leaf = Q.Debug.leaf_level q in
    (* Non-leaf populated nodes only, as in the paper's measurement. *)
    let nonleaf_cap = (1 lsl leaf) - 1 in
    let nonleaf =
      Array.to_list counts |> List.filteri (fun i _ -> i < nonleaf_cap)
      |> List.filter (fun c -> c > 0)
      |> List.map float_of_int |> Array.of_list
    in
    if Array.length nonleaf = 0 then (0.0, 0.0)
    else (Zmsq_util.Stats.mean nonleaf, Zmsq_util.Stats.stddev nonleaf)
  in
  let elt k = Zmsq_pq.Elt.of_priority k in
  for _ = 1 to init do
    Q.insert h (elt (Keys.next g))
  done;
  let mean0, sd0 = stats () in
  for _ = 1 to pairs do
    Q.insert h (elt (Keys.next g));
    ignore (Q.extract h)
  done;
  let mean1, sd1 = stats () in
  let c = Q.Debug.counters q in
  Q.unregister h;
  [
    Table.make ~id:"stable" ~title:"TNode set-size stability under mixed load"
      ~notes:
        [
          Printf.sprintf "%d preloaded, %d insert/extract pairs, batch=32 target_len=32" init pairs;
          "paper: counts settle at target_len (mean 32, sd 2.76) after the run";
        ]
      ~header:[ "phase"; "mean count"; "stddev"; "splits"; "forced"; "min-swaps" ]
      [
        [ "after preload"; Table.cell_f mean0; Table.cell_f sd0; "-"; "-"; "-" ];
        [
          "after pairs";
          Table.cell_f mean1;
          Table.cell_f sd1;
          Table.cell_i c.Zmsq.splits;
          Table.cell_i c.Zmsq.forced_inserts;
          Table.cell_i c.Zmsq.min_swaps;
        ];
      ];
  ]

(* {2 7-bit keys (Section 4.5.1's side experiment)} *)

let keys7 () =
  let ops = scaled 1_000_000 in
  let queues = fig5_queues () in
  let rows =
    List.map
      (fun t ->
        let spec =
          {
            Throughput.default_spec with
            Throughput.total_ops = ops;
            insert_permil = 500;
            preload = ops / 2;
            keys = Keys.Uniform { bits = 7 };
            threads = t;
          }
        in
        row_f (string_of_int t)
          (List.map (fun (_, f) -> Throughput.run_avg ~repeats:(repeats ()) f spec) queues))
      (threads ())
  in
  [
    Table.make ~id:"keys7" ~title:"throughput with 7-bit keys (shallow trees)"
      ~notes:
        [
          Printf.sprintf "%d ops, 50/50 mix; only 128 distinct priorities" ops;
          "paper: all relaxed queues too shallow to scale; degradation worst for mound";
          "values: Mops/s";
        ]
      ~header:("threads" :: List.map fst queues)
      rows;
  ]

(* {2 Ablations} *)

let ablation_variants =
  [
    ("full", Fun.id);
    ("no-forced", fun p -> { p with P.forced_insert = false });
    ("no-minswap", fun p -> { p with P.min_swap = false });
    ("no-split", fun p -> { p with P.split = false });
    ("blocking-locks", fun p -> { p with P.lock_policy = P.Blocking });
  ]

(* Set-representation ablation rows run against the same spec, both with
   hazard pointers on ([Instances.zmsq_list] always publishes them). *)
let set_variants =
  [
    ("set=list", fun params -> Instances.zmsq_list ~params ());
    ("set=array", fun params -> Instances.zmsq ~params:{ params with P.hazards = true } ());
  ]

let ablations () =
  let base = P.static 32 in
  let ops = scaled 500_000 in
  let t = List.fold_left max 1 (threads ()) in
  let spec =
    {
      Throughput.default_spec with
      Throughput.total_ops = ops;
      insert_permil = 500;
      preload = ops / 2;
      keys = normal_keys;
      threads = t;
    }
  in
  let row name factory =
    let mops = Throughput.run_avg ~repeats:(repeats ()) factory spec in
    let acc =
      Accuracy.run_avg ~repeats:1 factory
        { Accuracy.qsize = 16384; extracts = 1638; threads = 1; seed = 0xAB }
    in
    [ name; Table.cell_f mops; Table.cell_f acc ]
  in
  let rows =
    List.map (fun (name, f) -> row name (Instances.zmsq ~params:(f base) ())) ablation_variants
    @ List.map (fun (name, mk) -> row name (mk base)) set_variants
  in
  [
    Table.make ~id:"ablations" ~title:"ZMSQ design-choice ablations"
      ~notes:
        [
          Printf.sprintf "50/50 mix, %d ops, %d threads, batch=32 target_len=32" ops t;
          "accuracy: top-10%% hit rate on a 16K queue, single thread";
        ]
      ~header:[ "variant"; "Mops/s"; "accuracy %" ]
      rows;
  ]

(* {2 Input-pattern sensitivity (Section 3.7)}

   The paper: the mound is highly sensitive to input pattern (descending
   inserts give size-1 lists, degrading it to a heap); the SprayList is
   insensitive; ZMSQ sits in between thanks to non-head insertion. We feed
   each structure the same op stream under different key patterns and
   report throughput plus the mean set/list size that explains it. *)

let patterns () =
  let ops = scaled 1_000_000 in
  let t = 2 in
  let key_specs =
    [
      ("uniform", uniform_keys);
      ("normal", normal_keys);
      ("ascending", Keys.Ascending { start = 1 });
      ("descending", Keys.Descending { start = ops + 1 });
      ("zipf", Keys.Zipf { n = 1 lsl 16; theta = 0.8 });
    ]
  in
  let spec keys =
    {
      Throughput.default_spec with
      Throughput.total_ops = ops;
      insert_permil = 500;
      preload = ops / 2;
      keys;
      threads = t;
    }
  in
  (* mean set size needs a live queue, so measure it inline *)
  let zmsq_quality keys =
    let module Q = Zmsq.Default in
    let q = Q.create ~params:(P.static 32) () in
    let h = Q.register q in
    let g = Keys.make (Zmsq_util.Rng.create ~seed:0xA11 ()) keys in
    for _ = 1 to ops / 2 do
      Q.insert h (Zmsq_pq.Elt.of_priority (Keys.next g))
    done;
    for _ = 1 to ops / 2 do
      Q.insert h (Zmsq_pq.Elt.of_priority (Keys.next g));
      ignore (Q.extract h)
    done;
    let counts = Q.Debug.node_counts q |> Array.to_list |> List.filter (fun c -> c > 0) in
    Q.unregister h;
    if counts = [] then 0.0
    else float_of_int (List.fold_left ( + ) 0 counts) /. float_of_int (List.length counts)
  in
  let mound_quality keys =
    let module M = Zmsq_mound.Mound in
    let q = M.create () in
    let h = M.register q in
    let g = Keys.make (Zmsq_util.Rng.create ~seed:0xA12 ()) keys in
    for _ = 1 to ops / 2 do
      M.insert h (Zmsq_pq.Elt.of_priority (Keys.next g))
    done;
    for _ = 1 to ops / 2 do
      M.insert h (Zmsq_pq.Elt.of_priority (Keys.next g));
      ignore (M.extract h)
    done;
    let counts = M.list_lengths q |> Array.to_list |> List.filter (fun c -> c > 0) in
    M.unregister h;
    if counts = [] then 0.0
    else float_of_int (List.fold_left ( + ) 0 counts) /. float_of_int (List.length counts)
  in
  let rows =
    List.map
      (fun (name, keys) ->
        let z = Throughput.run_avg ~repeats:1 (Instances.zmsq ~params:(P.static 32) ()) (spec keys) in
        let m = Throughput.run_avg ~repeats:1 Instances.mound (spec keys) in
        let s = Throughput.run_avg ~repeats:1 Instances.spraylist (spec keys) in
        [
          name;
          Table.cell_f z;
          Table.cell_f m;
          Table.cell_f s;
          Table.cell_f (zmsq_quality keys);
          Table.cell_f (mound_quality keys);
        ])
      key_specs
  in
  [
    Table.make ~id:"patterns" ~title:"input-pattern sensitivity"
      ~notes:
        [
          Printf.sprintf "%d ops, 50/50 mix, 2 threads, zmsq batch=32 target_len=32" ops;
          "paper (Section 3.7): mound degrades on monotone input; spraylist unaffected;";
          "zmsq in between — larger mean set sizes are the mechanism";
        ]
      ~header:
        [ "pattern"; "zmsq Mops"; "mound Mops"; "spray Mops"; "zmsq set size"; "mound list size" ]
      rows;
  ]

(* {2 Memory footprint and tree compactness (Section 3.2 claims)}

   The paper: ZMSQ's denser sets give (1) a tree 4-5 levels shallower than
   the mound's and (2) substantially less memory. We preload identical
   elements and compare live heap words (via a compacting Gc measurement
   around each structure) and tree depth. *)

let mem () =
  let n = scaled 1_000_000 in
  let preload_keys =
    Keys.stream (Zmsq_util.Rng.create ~seed:0x3E3 ()) uniform_keys n
  in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let measure name insert depth =
    let base = live_words () in
    insert ();
    let used = live_words () - base in
    (name, used, depth ())
  in
  let rows = ref [] in
  (* ZMSQ (list) *)
  let zq = ref None in
  let name, words, depth =
    measure "zmsq(list)"
      (fun () ->
        let module Q = Zmsq.Default in
        let q = Q.create ~params:P.(default |> with_batch 48 |> with_target_len 72) () in
        let h = Q.register q in
        Array.iter (fun k -> Q.insert h (Zmsq_pq.Elt.of_priority k)) preload_keys;
        Q.unregister h;
        zq := Some (Obj.repr q))
      (fun () ->
        match !zq with
        | Some o -> Zmsq.Default.Debug.leaf_level (Obj.obj o)
        | None -> -1)
  in
  rows := [ name; Table.cell_i words; Table.cell_i depth; Table.cell_f (float_of_int words /. float_of_int n) ] :: !rows;
  zq := None;
  (* mound *)
  let mq = ref None in
  let name, words, depth =
    measure "mound"
      (fun () ->
        let module M = Zmsq_mound.Mound in
        let q = M.create () in
        let h = M.register q in
        Array.iter (fun k -> M.insert h (Zmsq_pq.Elt.of_priority k)) preload_keys;
        M.unregister h;
        mq := Some (Obj.repr q))
      (fun () ->
        match !mq with
        | Some o -> Zmsq_mound.Mound.leaf_level (Obj.obj o)
        | None -> -1)
  in
  rows := [ name; Table.cell_i words; Table.cell_i depth; Table.cell_f (float_of_int words /. float_of_int n) ] :: !rows;
  mq := None;
  (* spraylist *)
  let sq = ref None in
  let name, words, depth =
    measure "spraylist"
      (fun () ->
        let module S = Zmsq_spraylist.Spraylist in
        let q = S.create () in
        let h = S.register q in
        Array.iter (fun k -> S.insert h (Zmsq_pq.Elt.of_priority k)) preload_keys;
        S.unregister h;
        sq := Some (Obj.repr q))
      (fun () -> 24 (* fixed tower height bound *))
  in
  rows := [ name; Table.cell_i words; Table.cell_i depth; Table.cell_f (float_of_int words /. float_of_int n) ] :: !rows;
  sq := None;
  [
    Table.make ~id:"mem" ~title:"memory footprint and tree depth"
      ~notes:
        [
          Printf.sprintf "%d preloaded 20-bit keys; live heap words attributable to the structure" n;
          "paper (Section 3.2): ZMSQ's denser sets cut depth by 4-5 levels vs the mound";
        ]
      ~header:[ "structure"; "live words"; "depth/levels"; "words per element" ]
      (List.rev !rows);
  ]

(* {2 Insert buffering extension (after Williams & Sanders' MultiQueue)}

   Per-handle local insert buffers published as bulk leaf insertions.
   Insert-heavy workloads are where the amortization pays: each flush
   takes the tree locks once for up to buffer_len elements. The mixed
   table shows the cost side — extract-side demand flushes and the wider
   relaxation window. *)

let buffer_lens = [ 0; 16; 64 ]

let buffer () =
  let ops = scaled 1_000_000 in
  let factory buffer_len =
    Instances.zmsq
      ~params:P.(default |> with_batch 48 |> with_target_len 72 |> with_buffer_len buffer_len)
      ()
  in
  let table ~id ~title ~insert_permil ~preload =
    let rows =
      List.map
        (fun t ->
          let spec =
            {
              Throughput.default_spec with
              Throughput.total_ops = ops;
              insert_permil;
              preload;
              keys = uniform_keys;
              threads = t;
            }
          in
          row_f (string_of_int t)
            (List.map
               (fun bl -> Throughput.run_avg ~repeats:(repeats ()) (factory bl) spec)
               buffer_lens))
        (threads ())
    in
    Table.make ~id ~title
      ~notes:
        [
          Printf.sprintf "%d ops, batch=48 target_len=72, uniform keys%s" ops
            (if preload > 0 then Printf.sprintf ", %d preloaded" preload else ", empty start");
          "buf=0 is the unbuffered baseline; values: Mops/s (higher is better)";
        ]
      ~header:("threads" :: List.map (fun b -> Printf.sprintf "buf=%d" b) buffer_lens)
      rows
  in
  (* The quality side of the trade: preloading through buffers lands each
     group at a position keyed on its max, so its smaller elements ride
     high in the tree and Table-1-style hit rates drop — the window bound
     is untouched (test_props), but rank accuracy is not free. *)
  let accuracy_table =
    let qsize = 16384 and extracts = 1638 in
    let rows =
      List.map
        (fun t ->
          row_f (string_of_int t)
            (List.map
               (fun bl ->
                 Accuracy.run_avg ~repeats:(repeats ()) (factory bl)
                   { Accuracy.qsize; extracts; threads = t; seed = 0xBACC })
               buffer_lens))
        [ 1; 2 ]
    in
    Table.make ~id:"buffer-accuracy" ~title:"top-10% hit rate vs buffer_len"
      ~notes:
        [
          Printf.sprintf "%d keys preloaded through a buffered handle, %d extractions" qsize
            extracts;
          "bulk landings cost rank accuracy (smaller elements travel with their max);";
          "the batch + ndomains*buffer_len window bound is unaffected (see test_props)";
        ]
      ~header:("threads" :: List.map (fun b -> Printf.sprintf "buf=%d" b) buffer_lens)
      rows
  in
  [
    table ~id:"buffer-insert" ~title:"insert-only throughput vs buffer_len" ~insert_permil:1000
      ~preload:0;
    table ~id:"buffer-mixed" ~title:"50/50 mix throughput vs buffer_len" ~insert_permil:500
      ~preload:(ops / 2);
    accuracy_table;
  ]

(* {2 Sharded ZMSQ-of-ZMSQs (ROADMAP item 1 / Engineering MultiQueues)}

   Throughput and accuracy across the shards axis. Insert-heavy workloads
   are where sharding pays: sticky routing sends each handle's flushes at
   its own shard, so the per-shard root and leaf locks see 1/shards of the
   traffic. The accuracy table shows the cost side — the rank-error window
   widens to shards * (batch + ndomains*buffer_len) plus the two-choice
   selection slack (Accuracy.sharded_bound). *)

let shard_counts = [ 1; 2; 4 ]

let shard () =
  let ops = scaled 1_000_000 in
  let factory shards =
    Instances.zmsq_shard
      ~params:
        P.(
          default |> with_batch 48 |> with_target_len 72 |> with_buffer_len 64
          |> with_shards shards)
      ()
  in
  let table ~id ~title ~insert_permil ~preload =
    let rows =
      List.map
        (fun t ->
          let spec =
            {
              Throughput.default_spec with
              Throughput.total_ops = ops;
              insert_permil;
              preload;
              keys = uniform_keys;
              threads = t;
            }
          in
          row_f (string_of_int t)
            (List.map
               (fun s -> Throughput.run_avg ~repeats:(repeats ()) (factory s) spec)
               shard_counts))
        (threads ())
    in
    Table.make ~id ~title
      ~notes:
        [
          Printf.sprintf "%d ops, batch=48 target_len=72 buf=64, uniform keys%s" ops
            (if preload > 0 then Printf.sprintf ", %d preloaded" preload else ", empty start");
          "shards=1 delegates to the plain queue; values: Mops/s (higher is better)";
        ]
      ~header:("threads" :: List.map (fun s -> Printf.sprintf "shards=%d" s) shard_counts)
      rows
  in
  let accuracy_table =
    let qsize = 16384 and extracts = 1638 in
    let rows =
      List.map
        (fun t ->
          row_f (string_of_int t)
            (List.map
               (fun s ->
                 Accuracy.run_avg ~repeats:(repeats ()) (factory s)
                   { Accuracy.qsize; extracts; threads = t; seed = 0x5ACC })
               shard_counts))
        [ 2; 4 ]
    in
    Table.make ~id:"shard-accuracy" ~title:"top-10% hit rate vs shards"
      ~notes:
        [
          Printf.sprintf "%d keys preloaded, %d extractions" qsize extracts;
          "the rank-error window is shards * (batch + ndomains*buffer_len) plus the";
          "two-choice selection slack (Accuracy.sharded_bound, enforced in test_props)";
        ]
      ~header:("threads" :: List.map (fun s -> Printf.sprintf "shards=%d" s) shard_counts)
      rows
  in
  [
    table ~id:"shard-insert" ~title:"insert-only throughput vs shards" ~insert_permil:1000
      ~preload:0;
    table ~id:"shard-mixed" ~title:"50/50 mix throughput vs shards" ~insert_permil:500
      ~preload:(ops / 2);
    accuracy_table;
  ]

(* {2 Registry} *)

let all =
  [
    { id = "fig2a"; title = "lock study, 100% inserts"; paper = "Figure 2(a)";
      run = fig2 ~insert_permil:1000 ~preload:false ~id:"fig2a" ~title:"lock study, 100% inserts" };
    { id = "fig2b"; title = "lock study, 50/50 mix"; paper = "Figure 2(b)";
      run = fig2 ~insert_permil:500 ~preload:true ~id:"fig2b" ~title:"lock study, 50/50 mix" };
    { id = "fig3a"; title = "batch/target_len, 100% inserts"; paper = "Figure 3(a)";
      run = fig3 ~insert_permil:1000 ~preload:false ~id:"fig3a" ~title:"batch/target_len, 100% inserts" };
    { id = "fig3b"; title = "batch/target_len, 50/50 mix"; paper = "Figure 3(b)";
      run = fig3 ~insert_permil:500 ~preload:true ~id:"fig3b" ~title:"batch/target_len, 50/50 mix" };
    { id = "table1a"; title = "accuracy, 1K queue"; paper = "Table 1(a)";
      run = table1 ~qsize:1024 ~extract_counts:[ 102; 512 ] ~id:"table1a" ~title:"accuracy, 1K queue" };
    { id = "table1b"; title = "accuracy, 64K queue"; paper = "Table 1(b)";
      run =
        table1 ~qsize:65536 ~extract_counts:[ 65; 655; 6553 ] ~id:"table1b"
          ~title:"accuracy, 64K queue" };
    { id = "fig4"; title = "blocking vs spinning"; paper = "Figure 4(a,b)"; run = fig4 };
    { id = "fig5a"; title = "throughput, 100% inserts"; paper = "Figure 5(a)";
      run =
        fig5 ~insert_permil:1000 ~preload:false ~keys:uniform_keys ~id:"fig5a"
          ~title:"throughput, 100% inserts" };
    { id = "fig5b"; title = "throughput, 66% inserts"; paper = "Figure 5(b)";
      run =
        fig5 ~insert_permil:660 ~preload:false ~keys:uniform_keys ~id:"fig5b"
          ~title:"throughput, 66% inserts" };
    { id = "fig5c"; title = "throughput, 50/50 mix, 20-bit keys"; paper = "Figure 5(c)";
      run =
        fig5 ~insert_permil:500 ~preload:true ~keys:uniform_keys ~id:"fig5c"
          ~title:"throughput, 50/50 mix, 20-bit keys" };
    { id = "fig6"; title = "producer/consumer ratios"; paper = "Figure 6"; run = fig6 };
    { id = "fig7"; title = "SSSP on social graphs"; paper = "Figure 7"; run = fig7 };
    { id = "fig8"; title = "SSSP tuning on LiveJournal"; paper = "Figure 8"; run = fig8 };
    { id = "stable"; title = "set-size stability"; paper = "Section 3.2"; run = stable };
    { id = "keys7"; title = "7-bit key study"; paper = "Section 4.5.1"; run = keys7 };
    { id = "mem"; title = "memory footprint and depth"; paper = "Section 3.2"; run = mem };
    { id = "patterns"; title = "input-pattern sensitivity"; paper = "Section 3.7"; run = patterns };
    { id = "ablations"; title = "design-choice ablations"; paper = "Sections 3.2/4.1"; run = ablations };
    { id = "buffer"; title = "insert-buffering extension"; paper = "Section 5 / MultiQueue"; run = buffer };
    { id = "shard"; title = "sharded ZMSQ-of-ZMSQs"; paper = "MultiQueue / ROADMAP 1"; run = shard };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run_one ?(csv_dir = "results") e =
  Printf.printf "\n###### %s — %s (%s) ######\n%!" e.id e.title e.paper;
  let t0 = Unix.gettimeofday () in
  let tables = e.run () in
  let wall = Unix.gettimeofday () -. t0 in
  List.iter
    (fun tbl ->
      Table.print tbl;
      let path = Table.save_csv ~dir:csv_dir tbl in
      Printf.printf "   [csv: %s]\n%!" path)
    tables;
  (* Machine-readable export for the perf trajectory: the experiment's
     tables, its cost, and the merged metrics of every queue the run
     created (sharded counters + any [ZMSQ_OBS=full] histograms). *)
  let snap = Zmsq_obs.Metrics.global_snapshot () in
  let json =
    Zmsq_obs.Json.Obj
      [
        ("id", Zmsq_obs.Json.Str e.id);
        ("title", Zmsq_obs.Json.Str e.title);
        ("paper", Zmsq_obs.Json.Str e.paper);
        ("scale", Zmsq_obs.Json.Float (scale ()));
        ("wall_seconds", Zmsq_obs.Json.Float wall);
        ("tables", Zmsq_obs.Json.Arr (List.map Table.to_json tables));
        ("metrics", Zmsq_obs.Export.json_of_snapshot snap);
      ]
  in
  let path =
    Zmsq_obs.Export.write_file
      ~path:(Filename.concat csv_dir (e.id ^ ".json"))
      (Zmsq_obs.Json.to_string json)
  in
  Printf.printf "   [json: %s] [%s took %.1fs]\n%!" path e.id wall
