(* The repo benchmark's command line (see README.md).

   zmsq_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1|DIR]
   zmsq_bench --all [...]           every workload, one after another
   zmsq_bench --repeat N [...]      N runs per workload (seeds N, N+1, ...):
                                    median and quartiles of each metric

   Each workload runs in its own child process, with every ZMSQ_*
   variable removed from its environment so the library and server run
   with their shipped defaults. The last line of standard output is one
   JSON object: {"correct", "attempted", "failed", "metrics"}, where the
   metrics are the end-to-end ones of an untraced run or the per-layer
   ones of a traced run. *)

open Zmsq_benchmark
module Json = Zmsq_obs.Json

let default_trace_dir = ".bench_trace"
let child_timeout_s = 170.0

let usage () =
  prerr_endline
    "usage: zmsq_bench (--workload NAME | --all) [--seed N] [--seconds S]\n\
    \                  [--trace 0|1|DIR] [--repeat N] [--server PATH]\n\
    \  workloads: steady_mixed handoff sssp rpc_ramp\n\
    \  --trace 1 writes to .bench_trace; --trace DIR writes to DIR";
  exit 2

type opts = {
  workloads : string list;
  seed : int;
  seconds : float;
  trace : string option;
  repeat : int;
  server : string;
  child : bool;
}

let parse argv =
  let o =
    ref
      {
        workloads = [];
        seed = 1;
        seconds = 10.0;
        trace = None;
        repeat = 1;
        server = Filename.concat (Filename.dirname Sys.executable_name) "../bin/zmsq_server.exe";
        child = false;
      }
  in
  let int v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let workload v = if List.mem v Spec.workloads then v else usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        o := { !o with workloads = [ workload v ] };
        go rest
    | "--child" :: v :: rest ->
        o := { !o with workloads = [ workload v ]; child = true };
        go rest
    | "--all" :: rest ->
        o := { !o with workloads = Spec.workloads };
        go rest
    | "--seed" :: v :: rest ->
        o := { !o with seed = int v };
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 && s <= 60.0 -> o := { !o with seconds = s }
        | _ -> usage ());
        go rest
    | "--trace" :: v :: rest ->
        let trace = match v with "0" -> None | "1" -> Some default_trace_dir | dir -> Some dir in
        o := { !o with trace };
        go rest
    | "--repeat" :: v :: rest ->
        o := { !o with repeat = max 1 (int v) };
        go rest
    | "--server" :: v :: rest ->
        o := { !o with server = v };
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if !o.workloads = [] then usage ();
  !o

(* {2 Child: one workload in this process} *)

let run_child o =
  let w = List.hd o.workloads in
  let traced = o.trace <> None and seed = o.seed and seconds = o.seconds in
  let r, recorders =
    match w with
    | "steady_mixed" -> Steady.run ~seed ~seconds ~traced
    | "handoff" -> Handoff.run ~seed ~seconds ~traced
    | "sssp" -> Sssp.run ~seed ~seconds ~traced
    | _ -> Rpc.run ~seed ~seconds ~traced ~server_exe:o.server
  in
  Option.iter
    (fun dir ->
      let write name contents =
        ignore (Zmsq_obs.Export.write_file ~path:(Filename.concat dir (w ^ name)) contents)
      in
      write ".trace.json" (Probe.chrome_json recorders);
      write ".ledger.json"
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.Str w);
                ("seed", Json.Int seed);
                ("per_layer", Outcome.nums r.Outcome.layer);
                ("diagnostics", Outcome.nums r.Outcome.diag);
              ])))
    o.trace;
  print_endline (Json.to_string (Outcome.to_json r));
  exit (if Outcome.correct r then 0 else 1)

(* {2 Parent: one child process per workload run} *)

let child_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"ZMSQ_" kv))
       (Array.to_list (Unix.environment ())))

let read_all fd ~deadline =
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then `Timeout
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> `Eof (Buffer.contents buf)
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Run one workload in a child process; [Error] if it died, hung or
   printed no result. A child that ran but failed a check still returns
   its result. *)
let run_one o w ~seed =
  let args =
    [ Sys.executable_name; "--child"; w; "--seed"; string_of_int seed ]
    @ [ "--seconds"; Printf.sprintf "%g" o.seconds; "--server"; o.server ]
    @ match o.trace with Some d -> [ "--trace"; d ] | None -> []
  in
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name (Array.of_list args) (child_env ()) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let out = read_all r ~deadline:(Unix.gettimeofday () +. child_timeout_s) in
  Unix.close r;
  (* The child leads its own process group: a hung run goes down with
     any server it started. *)
  if out = `Timeout then (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
  let code = Rpc.waitpid pid in
  match out with
  | `Timeout -> Error (Printf.sprintf "%s: no result within %.0f s" w child_timeout_s)
  | `Eof text -> (
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
      match List.rev lines with
      | last :: _ -> (
          match Outcome.of_json (Json.of_string_exn last) with
          | res -> Ok res
          | exception _ -> Error (Printf.sprintf "%s: unreadable result (exit %d)" w code))
      | [] -> Error (Printf.sprintf "%s: exited %d without a result" w code))

let metrics_of o (res : Outcome.t) = if o.trace = None then res.e2e else res.layer

let print_result o (res : Outcome.t) =
  Printf.printf "== %s: %s\n" res.workload
    (if Outcome.correct res then "outputs correct" else "OUTPUT CHECK FAILED");
  List.iter
    (fun (name, c) ->
      match c with Ok () -> () | Error e -> Printf.printf "   check %s: %s\n" name e)
    res.checks;
  let show group l =
    List.iter
      (fun (k, v) ->
        let u = match Spec.find k with m -> m.Spec.unit_ | exception Not_found -> "" in
        Printf.printf "   %-6s %-30s %16.6g %s\n" group k v u)
      l
  in
  show (if o.trace = None then "e2e" else "layer") (metrics_of o res);
  show "diag" res.diag;
  (match List.assoc_opt "net.residual_us" res.diag with
  | Some residual ->
      let d k = List.assoc k res.diag in
      Printf.printf
        "   reconcile rpc_p50 %.1f us = encode %.2f + decode %.2f + queue work %.2f + \
         residual %.1f\n"
        (d "rpc_p50_us") (d "net.encode_ns" /. 1e3) (d "net.decode_ns" /. 1e3)
        ((d "shard.insert16_ns" +. d "shard.extract16_ns") /. 2e3)
        residual
  | None -> ());
  (match List.assoc_opt "gen_lag_pct" res.diag with
  | Some p when p > 100.0 ->
      print_endline "   INVALID: generator lag p99 above the mean arrival gap"
  | _ -> ());
  flush stdout

let result_json ~correct ~attempted ~failed extra =
  Json.to_string
    (Json.Obj
       ([
          ("correct", Json.Bool correct);
          ("attempted", Json.Int attempted);
          ("failed", Json.Int failed);
        ]
       @ extra))

let metrics_json l =
  ( "metrics",
    Json.Obj
      (List.map
         (fun (k, v) ->
           (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (Spec.find k).Spec.unit_) ]))
         l) )

(* --repeat: median and quartiles of every metric over the runs. *)
let spread o w (runs : Outcome.t list) =
  let first = List.hd runs in
  let names = List.map fst (metrics_of o first) @ List.map fst first.diag in
  Printf.printf "== %s: %d runs, seeds %d..%d\n" w (List.length runs) o.seed
    (o.seed + o.repeat - 1);
  Printf.printf "   %-30s %14s %14s %14s %8s  %s\n" "metric" "median" "q1" "q3" "iqr/med" "[runs]";
  List.map
    (fun k ->
      let xs =
        Array.of_list
          (List.filter_map
             (fun (r : Outcome.t) ->
               match List.assoc_opt k (metrics_of o r) with
               | Some v -> Some v
               | None -> List.assoc_opt k r.diag)
             runs)
      in
      let q1, med, q3 = Samples.quartiles xs in
      let iqr = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med in
      Printf.printf "   %-30s %14.6g %14.6g %14.6g %7.1f%%  [%s]\n" k med q1 q3 (100.0 *. iqr)
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4g") xs)));
      ( w ^ "." ^ k,
        Json.Obj [ ("median", Json.Float med); ("q1", Json.Float q1); ("q3", Json.Float q3) ] ))
    names

let () =
  let o = parse Sys.argv in
  if o.child then begin
    ignore (Unix.setsid ());
    run_child o
  end;
  if List.mem "rpc_ramp" o.workloads && not (Sys.file_exists o.server) then begin
    Printf.eprintf "zmsq_bench: %s not found; build it with dune build ./bin/zmsq_server.exe\n"
      o.server;
    exit 2
  end;
  let runs =
    List.map
      (fun w ->
        ( w,
          List.init o.repeat (fun i ->
              match run_one o w ~seed:(o.seed + i) with
              | Ok res ->
                  if o.repeat = 1 then print_result o res;
                  res
              | Error e ->
                  prerr_endline ("zmsq_bench: " ^ e);
                  exit 1) ))
      o.workloads
  in
  let all = List.concat_map snd runs in
  let correct = List.for_all Outcome.correct all in
  let attempted = List.fold_left (fun a (r : Outcome.t) -> a + r.attempted) 0 all in
  let failed = List.fold_left (fun a (r : Outcome.t) -> a + r.failed) 0 all in
  let extra =
    if o.repeat > 1 then
      [ ("spread", Json.Obj (List.concat_map (fun (w, rs) -> spread o w rs) runs)) ]
    else
      match all with
      | [ res ] -> [ metrics_json (metrics_of o res) ]
      | _ ->
          [
            ( "workloads",
              Json.Obj
                (List.map
                   (fun (r : Outcome.t) -> (r.workload, Json.Obj [ metrics_json (metrics_of o r) ]))
                   all) );
          ]
  in
  print_endline (result_json ~correct ~attempted ~failed extra);
  exit (if correct then 0 else 1)
