module Elt = Zmsq_pq.Elt
module Rng = Zmsq_util.Rng
module Histogram = Zmsq_util.Stats.Histogram
module Timing = Zmsq_util.Timing

type config = {
  producers : int;
  consumers : int;
  duration_s : float;
  batch : int;
  extract_n : int;
  insert_budget_ns : int;
  extract_budget_ns : int;
  retry : Retry.policy;
  seed : int;
  fault : (unit -> Zmsq_prim.Faulty.io_fault) option;
}

let default_config =
  {
    producers = 2;
    consumers = 2;
    duration_s = 1.0;
    batch = 32;
    extract_n = 32;
    insert_budget_ns = 50_000_000;
    extract_budget_ns = 50_000_000;
    retry = Retry.default_policy;
    seed = 1;
    fault = None;
  }

type report = {
  rpcs_ok : int;
  rpcs_refused : int;
  rpcs_failed : int;
  elts_inserted : int;
  elts_extracted : int;
  deadline_expired : int;
  gave_up : int;
  retries : int;
  backoff_ns : int;
  rpc_ns : Histogram.t;
}

let empty_report () =
  {
    rpcs_ok = 0;
    rpcs_refused = 0;
    rpcs_failed = 0;
    elts_inserted = 0;
    elts_extracted = 0;
    deadline_expired = 0;
    gave_up = 0;
    retries = 0;
    backoff_ns = 0;
    rpc_ns = Histogram.create ();
  }

let merge_report a b =
  {
    rpcs_ok = a.rpcs_ok + b.rpcs_ok;
    rpcs_refused = a.rpcs_refused + b.rpcs_refused;
    rpcs_failed = a.rpcs_failed + b.rpcs_failed;
    elts_inserted = a.elts_inserted + b.elts_inserted;
    elts_extracted = a.elts_extracted + b.elts_extracted;
    deadline_expired = a.deadline_expired + b.deadline_expired;
    gave_up = a.gave_up + b.gave_up;
    retries = a.retries + b.retries;
    backoff_ns = a.backoff_ns + b.backoff_ns;
    rpc_ns = Histogram.merge a.rpc_ns b.rpc_ns;
  }

(* One closed-loop client domain. [mk_req] builds the next request from
   the domain's RNG; the loop issues it through [call_retry], classifies
   the outcome and keeps going until the deadline. *)
let client_loop cfg addr ~seed ~mk_req ~on_resp =
  let r = ref (empty_report ()) in
  let rng = Rng.create ~seed () in
  let retry = Retry.create ~seed cfg.retry in
  let c = Client.connect ?fault:cfg.fault addr in
  let stop_at = Timing.now_ns () + int_of_float (cfg.duration_s *. 1e9) in
  (try
     while Timing.now_ns () < stop_at do
       let req = mk_req rng in
       let t0 = Timing.now_ns () in
       (match Client.call_retry c ~retry req with
       | Ok (Protocol.Error (Protocol.Deadline_expired, _)) ->
           Histogram.add !r.rpc_ns (float_of_int (Timing.now_ns () - t0));
           r := { !r with deadline_expired = !r.deadline_expired + 1 }
       | Ok (Protocol.Error (Protocol.Closed, _)) ->
           (* The server is draining: this client's run is over. *)
           raise Exit
       | Ok (Protocol.Error _) ->
           (* Non-retryable refusal (bad request etc.) — counted refused
              without a retry cycle. *)
           r := { !r with rpcs_refused = !r.rpcs_refused + 1 }
       | Ok resp ->
           Histogram.add !r.rpc_ns (float_of_int (Timing.now_ns () - t0));
           r := { !r with rpcs_ok = !r.rpcs_ok + 1 };
           on_resp r resp
       | Error why ->
           let transport =
             String.length why >= 9 && String.sub why 0 9 = "transport"
           in
           r :=
             {
               !r with
               gave_up = !r.gave_up + 1;
               rpcs_failed = (!r.rpcs_failed + if transport then 1 else 0);
               rpcs_refused = (!r.rpcs_refused + if transport then 0 else 1);
             })
     done
   with Exit -> ());
  Client.close c;
  { !r with retries = Retry.retries retry; backoff_ns = Retry.waited_ns retry }

let retry_storm (policy : Retry.policy) r =
  if r.backoff_ns >= r.retries * policy.base_ns then None
  else
    Some
      (Printf.sprintf "retry storm: %d retries waited %d ns in all, under the %d ns base delay each"
         r.retries r.backoff_ns policy.base_ns)

let producer_domain cfg addr i () =
  client_loop cfg addr ~seed:(cfg.seed + i)
    ~mk_req:(fun rng ->
      let elts =
        Array.init cfg.batch (fun _ ->
            Elt.pack
              ~priority:(Rng.int rng (1 lsl 20))
              ~payload:(Rng.int rng (1 lsl 20)))
      in
      Protocol.Insert { budget_ns = cfg.insert_budget_ns; elts })
    ~on_resp:(fun r resp ->
      match resp with
      | Protocol.Inserted n -> r := { !r with elts_inserted = !r.elts_inserted + n }
      | _ -> ())

let consumer_domain cfg addr i () =
  client_loop cfg addr ~seed:(cfg.seed + 10_000 + i)
    ~mk_req:(fun _rng ->
      Protocol.Extract { budget_ns = cfg.extract_budget_ns; max_n = cfg.extract_n })
    ~on_resp:(fun r resp ->
      match resp with
      | Protocol.Elements es ->
          r := { !r with elts_extracted = !r.elts_extracted + Array.length es }
      | _ -> ())

let run cfg addr =
  let doms =
    List.init cfg.producers (fun i -> Domain.spawn (producer_domain cfg addr i))
    @ List.init cfg.consumers (fun i -> Domain.spawn (consumer_domain cfg addr i))
  in
  List.fold_left (fun acc d -> merge_report acc (Domain.join d)) (empty_report ()) doms
