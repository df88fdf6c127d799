(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 5 for the index), plus a Bechamel
   single-operation latency suite.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig5a fig7 latency
     dune exec bench/main.exe -- --list

   Environment: ZMSQ_BENCH_SCALE (quick|full|float), ZMSQ_BENCH_THREADS,
   ZMSQ_BENCH_RUNS, ZMSQ_BENCH_CONSUMERS, ZMSQ_LJ_NODES. *)

module Experiments = Zmsq_harness.Experiments
module Table = Zmsq_harness.Table
module Elt = Zmsq_pq.Elt

(* {2 Bechamel latency suite: one Test.make per queue/operation pair} *)

let latency_tests () =
  let open Bechamel in
  let mk_queue name factory =
    (* Pre-populated queue; insert/extract pairs keep the size stable so
       the measured op runs against a steady structure. *)
    let inst = factory () in
    let module I = (val inst : Zmsq_pq.Intf.INSTANCE) in
    let h = I.Q.register I.q in
    let rng = Zmsq_util.Rng.create ~seed:0xBE5 () in
    for _ = 1 to 10_000 do
      I.Q.insert h (Elt.of_priority (Zmsq_util.Rng.int rng (1 lsl 20)))
    done;
    let insert_extract () =
      I.Q.insert h (Elt.of_priority (Zmsq_util.Rng.int rng (1 lsl 20)));
      ignore (I.Q.extract h)
    in
    Test.make ~name:(name ^ "/pair") (Staged.stage insert_extract)
  in
  let queues =
    [
      ("zmsq", Zmsq_harness.Instances.zmsq ());
      ("zmsq-list", Zmsq_harness.Instances.zmsq_list ());
      ("zmsq-leak", Zmsq_harness.Instances.zmsq_leak ());
      ("zmsq-strict", Zmsq_harness.Instances.zmsq ~params:Zmsq.Params.strict ());
      ( "zmsq-buffered",
        Zmsq_harness.Instances.zmsq ~params:Zmsq.Params.(default |> with_buffer_len 64) () );
      ("mound", Zmsq_harness.Instances.mound);
      ("spraylist", Zmsq_harness.Instances.spraylist);
      ("multiqueue", Zmsq_harness.Instances.multiqueue ());
      ("klsm", Zmsq_harness.Instances.klsm ());
      ("locked-heap", Zmsq_harness.Instances.locked_heap);
    ]
  in
  Test.make_grouped ~name:"latency" (List.map (fun (n, f) -> mk_queue n f) queues)

let run_latency () =
  let open Bechamel in
  let open Toolkit in
  let t0 = Unix.gettimeofday () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (latency_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | _ -> Float.nan
      in
      rows := [ name; Table.cell_f ns ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  let tbl =
    Table.make ~id:"latency" ~title:"single-thread insert+extract pair latency"
      ~notes:[ "Bechamel OLS estimate over a 10K-element steady-state queue"; "values: ns per pair" ]
      ~header:[ "queue"; "ns/pair" ]
      rows
  in
  Table.print tbl;
  ignore (Table.save_csv ~dir:"results" tbl);
  let wall = Unix.gettimeofday () -. t0 in
  (* Same trajectory format as Experiments.run_one, with the table wrapped
     in the standard envelope (wall time + merged metrics snapshot). *)
  let json =
    Zmsq_obs.Json.Obj
      [
        ("id", Zmsq_obs.Json.Str "latency");
        ("title", Zmsq_obs.Json.Str tbl.Table.title);
        ("paper", Zmsq_obs.Json.Str "extra");
        ("wall_seconds", Zmsq_obs.Json.Float wall);
        ("tables", Zmsq_obs.Json.Arr [ Table.to_json tbl ]);
        ("metrics", Zmsq_obs.Export.json_of_snapshot (Zmsq_obs.Metrics.global_snapshot ()));
      ]
  in
  let path =
    Zmsq_obs.Export.write_file ~path:"results/latency.json" (Zmsq_obs.Json.to_string json)
  in
  Printf.printf "   [json: %s] [latency took %.1fs]\n%!" path wall

(* {2 Driver} *)

let list_experiments () =
  Printf.printf "available experiments:\n";
  List.iter
    (fun e -> Printf.printf "  %-10s %-45s [%s]\n" e.Experiments.id e.Experiments.title e.Experiments.paper)
    Experiments.all;
  Printf.printf "  %-10s %s\n" "latency" "bechamel single-op latency suite"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--list" args then list_experiments ()
  else begin
    Printf.printf "ZMSQ benchmark suite — scale=%g threads=[%s] runs=%d\n%!"
      (Zmsq_util.Env.bench_scale ())
      (String.concat "," (List.map string_of_int (Zmsq_util.Env.bench_threads ())))
      (Zmsq_util.Env.int "ZMSQ_BENCH_RUNS" ~default:3);
    let ids = if args = [] then List.map (fun e -> e.Experiments.id) Experiments.all @ [ "latency" ] else args in
    List.iter
      (fun id ->
        if id = "latency" then run_latency ()
        else
          match Experiments.find id with
          | Some e -> Experiments.run_one e
          | None -> Printf.printf "unknown experiment %S (try --list)\n" id)
      ids
  end
