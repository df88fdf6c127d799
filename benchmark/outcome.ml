(* What one workload run hands back to the parent process: its checks, its
   operation counts, and three groups of named numbers.

   - [e2e]: the end-to-end metrics of BENCHMARK.json, measured untraced.
   - [layer]: the per-layer metrics of BENCHMARK.json, from a traced run.
   - [diag]: the workload's own headline numbers (ops_mops, topk_pct,
     handoff_p50_us, ...) and the tails, printed for people and never
     gated. *)

module Json = Zmsq_obs.Json

type t = {
  workload : string;
  checks : (string * (unit, string) result) list;
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layer : (string * float) list;
  diag : (string * float) list;
}

let correct r = List.for_all (fun (_, c) -> Result.is_ok c) r.checks

let nums l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l)

let to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ( "checks",
        Json.Arr
          (List.map
             (fun (name, c) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ("ok", Json.Bool (Result.is_ok c));
                   ("detail", Json.Str (match c with Ok () -> "" | Error e -> e));
                 ])
             r.checks) );
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("e2e", nums r.e2e);
      ("layer", nums r.layer);
      ("diag", nums r.diag);
    ]

let of_json j =
  let field k = match Json.member k j with Some v -> v | None -> failwith ("missing " ^ k) in
  let int k = Option.get (Json.to_int_opt (field k)) in
  let nums k =
    match field k with
    | Json.Obj l -> List.map (fun (k, v) -> (k, Option.get (Json.to_float_opt v))) l
    | _ -> failwith ("bad " ^ k)
  in
  {
    workload = Option.get (Json.to_string_opt (field "workload"));
    checks =
      List.map
        (fun c ->
          let s k = Option.get (Option.bind (Json.member k c) Json.to_string_opt) in
          let ok = Json.member "ok" c = Some (Json.Bool true) in
          (s "name", if ok then Ok () else Error (s "detail")))
        (Option.get (Json.to_list_opt (field "checks")));
    attempted = int "attempted";
    failed = int "failed";
    e2e = nums "e2e";
    layer = nums "layer";
    diag = nums "diag";
  }

(* Peak resident set ([VmHWM]) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

let us_of_ns ns = float_of_int ns /. 1e3
let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b
let per_k a b = if b = 0 then 0.0 else 1000.0 *. float_of_int a /. float_of_int b
