(* rpc_ramp: the service as shipped, under an open loop, because its
   clients are independent.

   Each run starts a fresh, unmodified [zmsq_server --port 0] (a fresh
   process per run because the admission ladder keeps state) and
   preloads it with [preload] elements. One generator domain then drives
   two pipelined connections: [Insert] of [batch] elements (1 s budget)
   alternating strictly with [Extract max_n:batch] (50 ms budget, above
   the server's 5 ms select tick), at Poisson arrivals of [rate_a] RPC/s.
   The queue stays near [preload], so extracts never park and the latency
   belongs to the front end: framing, the select loop, the admission
   ladder and [Shard], which the three library workloads skip. Latency
   runs from each RPC's intended send time to its response.

   A traced run also times the codec around every call, replays the same
   batches against an in-process copy of the server's queue (4 shards,
   blocking) to price the queue work of one RPC, and ramps the rate by
   x sqrt 2 per step until a step misses the limit. *)

module Elt = Zmsq_pq.Elt
module Rng = Zmsq_util.Rng
module Timing = Zmsq_util.Timing
module Json = Zmsq_obs.Json
module P = Zmsq_net.Protocol
module Frame = Zmsq_net.Frame
module S = Zmsq.Shard.Default
module TS = Probe.Timed (S)

let preload = 4096
let batch = 16
let insert_budget_ns = 1_000_000_000
let extract_budget_ns = 50_000_000
let rate_a = 4000.0
let setups = 5
let key_bits = 20

(* The ramp: a step passes when its p90 is within [limit_p90_ns], at most
   [limit_fail_pct] of its RPCs fail, and at most [limit_outstanding] are
   unanswered when its schedule ends. *)
let ramp_start = 5657.0
let ramp_steps = 6
let step_ns = 2_000_000_000
let limit_p90_ns = 1_000_000
let limit_fail_pct = 0.1
let limit_outstanding = 64
let replay_pairs = 2000

(* {2 The server process} *)

type server = { pid : int; err : in_channel; port : int }

(* Servers started and not yet stopped; whatever happens to the run, they
   are killed and waited for before it returns. *)
let live = ref []

let spawn exe =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "--port"; "0" |] Unix.stdin w w in
  Unix.close w;
  let err = Unix.in_channel_of_descr r in
  let rec port () =
    match input_line err with
    | line -> (
        match Scanf.sscanf_opt line "zmsq_server: listening on %_[^:]:%d" Fun.id with
        | Some p -> p
        | None -> port ())
    | exception End_of_file -> failwith "zmsq_server exited before listening"
  in
  let s = { pid; err; port = port () } in
  live := s :: !live;
  s

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + abs n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* The number in the server's "drained (N elements recovered ...)" line. *)
let drained_of_line line = Scanf.sscanf_opt line "zmsq_server: drained (%d elements" Fun.id

(* SIGTERM, the rest of the server's stderr, then its exit code. *)
let stop s =
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let drained = ref None in
  (try
     while true do
       match drained_of_line (input_line s.err) with Some n -> drained := Some n | None -> ()
     done
   with End_of_file -> ());
  close_in s.err;
  (!drained, waitpid s.pid)

(* {2 Connections} *)

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  backlog : Buffer.t;  (** bytes the socket has not taken yet *)
  fifo : int array;  (** RPC numbers in flight, oldest first (a ring) *)
  mutable head : int;
  mutable tail : int;
}

let fifo_size = 1 lsl 17
let in_flight c = c.tail - c.head

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    dec = Frame.decoder ();
    backlog = Buffer.create 4096;
    fifo = Array.make fifo_size 0;
    head = 0;
    tail = 0;
  }

let flush_backlog c =
  let s = Buffer.contents c.backlog in
  match Unix.write_substring c.fd s 0 (String.length s) with
  | n ->
      Buffer.clear c.backlog;
      Buffer.add_substring c.backlog s n (String.length s - n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let send_frame c frame =
  if Buffer.length c.backlog > 0 then Buffer.add_string c.backlog frame
  else
    let n =
      try Unix.write_substring c.fd frame 0 (String.length frame)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
    in
    if n < String.length frame then Buffer.add_substring c.backlog frame n (String.length frame - n)

let rbuf = Bytes.create 65536

(* Read what the socket has; [false] on EOF. *)
let fill c =
  match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
  | 0 -> false
  | n ->
      Frame.feed c.dec rbuf 0 n;
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true

let select rd wr timeout =
  try Unix.select rd wr [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])

(* One request and its response, with nothing else in flight on [c]. *)
let call_sync c req =
  send_frame c (Frame.encode (P.encode_req req));
  let deadline = Timing.now_ns () + 5_000_000_000 in
  let rec go () =
    match Frame.next c.dec with
    | Error e -> Error (Frame.error_to_string e)
    | Ok (Some payload) -> P.decode_resp payload
    | Ok None ->
        let now = Timing.now_ns () in
        if now > deadline then Error "timed out"
        else begin
          let wr = if Buffer.length c.backlog > 0 then [ c.fd ] else [] in
          let r, w, _ = select [ c.fd ] wr (float_of_int (deadline - now) /. 1e9) in
          if w <> [] then flush_backlog c;
          if r <> [] && not (fill c) then Error "connection closed" else go ()
        end
  in
  go ()

let stats c =
  match call_sync c P.Stats with
  | Ok (P.Stats_json s) -> Json.of_string_exn s
  | _ -> failwith "Stats RPC failed"

let stat_int j k = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int_opt)

let ladder_level j =
  match Option.bind (Json.member "level" j) Json.to_string_opt with
  | Some "throttle" -> 1
  | Some "shed" -> 2
  | Some "reject" -> 3
  | _ -> 0

(* {2 The open-loop client} *)

type client = {
  conns : conn array;
  rng : Rng.t;
  mutable next_id : int;
  mutable seen : Bytes.t;  (** element ids extracted so far *)
  mutable acked : int;
  mutable extracted : int;
  mutable dups : int;
  codec : Probe.recorder;
  mutable dead : bool;  (** a connection failed *)
}

(* One rate held for one schedule: phase A, or one ramp step. *)
type phase = {
  sched : int array;
  start : int;
  duration_ns : int;
  traced_windows : bool;  (** trace the odd windows *)
  lat : Samples.t array;  (** latencies by window of the schedule *)
  lag : Samples.t;
  mutable answered : int;
  mutable failed : int;
  id : int;  (** the phase's span *)
  span_ids : int array;  (** by RPC: the id its spans share, 0 if not kept *)
}

let window ph i = ph.sched.(i) * Array.length ph.lat / ph.duration_ns
let traced_now ph i = Gate.traced_segment ~traced:ph.traced_windows (window ph i)

let mark_seen c e =
  let id = Elt.payload e in
  if id >= Bytes.length c.seen then begin
    let bigger = Bytes.make (2 * (id + 1)) '\000' in
    Bytes.blit c.seen 0 bigger 0 (Bytes.length c.seen);
    c.seen <- bigger
  end;
  if Bytes.get c.seen id <> '\000' then c.dups <- c.dups + 1 else Bytes.set c.seen id '\001'

let on_response c ph conn payload =
  let now = Timing.now_ns () in
  let i = conn.fifo.(conn.head land (fifo_size - 1)) in
  conn.head <- conn.head + 1;
  let traced = traced_now ph i in
  let resp = P.decode_resp payload in
  let stop = Timing.now_ns () in
  let due = ph.start + ph.sched.(i) in
  if traced then begin
    ignore (Probe.record c.codec ~name:Probe.n_decode ~start:now ~stop);
    let id = ph.span_ids.(i) in
    if id > 0 then begin
      Probe.span c.codec ~name:Probe.n_rpc ~start:due ~stop:now ~id ~parent:ph.id;
      Probe.span c.codec ~name:Probe.n_decode ~start:now ~stop ~id ~parent:id
    end
  end;
  let ok =
    match resp with
    | Ok (P.Inserted k) ->
        c.acked <- c.acked + k;
        true
    | Ok (P.Elements a) ->
        c.extracted <- c.extracted + Array.length a;
        Array.iter (mark_seen c) a;
        true
    | Ok (P.Error _ | P.Pong | P.Stats_json _) | Error _ -> false
  in
  ph.answered <- ph.answered + 1;
  (* A refused or failed RPC misses every latency limit. *)
  let lat = if ok then now - due else max_int in
  if not ok then ph.failed <- ph.failed + 1;
  Samples.add ph.lat.(window ph i) lat

(* Do the I/O that is ready, waiting at most [timeout] seconds. *)
let poll c ph timeout =
  let rd = Array.to_list (Array.map (fun k -> k.fd) c.conns) in
  let wr =
    Array.fold_left (fun a k -> if Buffer.length k.backlog > 0 then k.fd :: a else a) [] c.conns
  in
  let r, w, _ = select rd wr timeout in
  Array.iter
    (fun k ->
      if List.memq k.fd w then flush_backlog k;
      if List.memq k.fd r then begin
        if not (fill k) then c.dead <- true;
        let rec frames () =
          match Frame.next k.dec with
          | Ok (Some payload) when in_flight k > 0 ->
              on_response c ph k payload;
              frames ()
          | Ok None -> ()
          | Ok (Some _) | Error _ -> c.dead <- true
        in
        frames ()
      end)
    c.conns

let send c ph i =
  let conn = c.conns.((i / 2) land 1) in
  let req =
    if i land 1 = 0 then begin
      let elts =
        Array.init batch (fun k ->
            Elt.pack ~priority:(Rng.int c.rng (1 lsl key_bits)) ~payload:(c.next_id + k))
      in
      c.next_id <- c.next_id + batch;
      P.Insert { budget_ns = insert_budget_ns; elts }
    end
    else P.Extract { budget_ns = extract_budget_ns; max_n = batch }
  in
  let start = Timing.now_ns () in
  let frame = Frame.encode (P.encode_req req) in
  if traced_now ph i then begin
    let stop = Timing.now_ns () in
    ignore (Probe.record c.codec ~name:Probe.n_encode ~start ~stop);
    (* One RPC in [span_every] keeps its spans: encode now, the RPC and
       its decode on the answer, all under one id. *)
    if i land (Probe.span_every - 1) = 0 then begin
      let id = Probe.fresh_id () in
      ph.span_ids.(i) <- id;
      Probe.span c.codec ~name:Probe.n_encode ~start ~stop ~id ~parent:id
    end
  end;
  if in_flight conn >= fifo_size then c.dead <- true
  else begin
    conn.fifo.(conn.tail land (fifo_size - 1)) <- i;
    conn.tail <- conn.tail + 1;
    send_frame conn frame
  end;
  poll c ph 0.0

let outstanding c = Array.fold_left (fun a k -> a + in_flight k) 0 c.conns

(* Run one phase; returns the RPCs still unanswered when its schedule
   ended. Afterwards waits (up to 5 s) for every answer. *)
let run_phase c ph =
  let wait due =
    let rec go () =
      let now = Timing.now_ns () in
      if now < due && not c.dead then begin
        poll c ph (float_of_int (due - now) /. 1e9);
        go ()
      end
    in
    go ()
  in
  Openloop.drive ~now:Timing.now_ns ~wait ~start:ph.start ~sched:ph.sched ~send:(send c ph)
    ~lag:ph.lag;
  let at_end = outstanding c in
  let deadline = Timing.now_ns () + 5_000_000_000 in
  while outstanding c > 0 && (not c.dead) && Timing.now_ns () < deadline do
    poll c ph 0.01
  done;
  (* Answers arriving later could not be told apart from the next
     phase's. *)
  if outstanding c > 0 then c.dead <- true;
  at_end

let phase ~seed ~rate ~duration_ns ~windows ~traced_windows =
  let sched = Openloop.schedule ~seed ~rate ~duration_ns in
  let n = Array.length sched in
  let per_window = Array.make windows 0 in
  Array.iter
    (fun t ->
      let w = t * windows / duration_ns in
      per_window.(w) <- per_window.(w) + 1)
    sched;
  {
    sched;
    start = Timing.now_ns () + 1_000_000;
    duration_ns;
    traced_windows;
    lat = Array.map Samples.create per_window;
    lag = Samples.create n;
    answered = 0;
    failed = 0;
    id = Probe.fresh_id ();
    span_ids = Array.make (if traced_windows then n else 0) 0;
  }

let phase_p90 ph =
  let s = Samples.sorted_of_list (Array.to_list ph.lat) in
  if Array.length s = 0 then max_int else Samples.percentile s 90.0

(* Step score: > 1 means the step missed the limit. *)
let score ph ~outstanding_at_end =
  let n = Array.length ph.sched in
  let fail_pct = Outcome.pct (ph.failed + (n - ph.answered)) n in
  List.fold_left Float.max 0.0
    [
      float_of_int (phase_p90 ph) /. float_of_int limit_p90_ns;
      fail_pct /. limit_fail_pct;
      float_of_int outstanding_at_end /. float_of_int limit_outstanding;
    ]

(* Linear interpolation on the score between the last passing and the
   first failing step: the rate at which the score would read 1. *)
let max_rate steps =
  let rec go (r0, s0) = function
    | [] -> r0
    | (r, s) :: rest ->
        if s <= 1.0 then go (r, s) rest else r0 +. ((1.0 -. s0) /. (s -. s0) *. (r -. r0))
  in
  go (0.0, 0.0) steps

(* {2 The in-process copy of the server's queue} *)

(* Replays [replay_pairs] insert/extract batches of [batch] from one
   handle, the work of one RPC each: timed per call, then per batch. *)
let replay ~seed =
  let q = S.create ~params:{ Zmsq.Params.default with blocking = true; shards = 4 } () in
  let h = S.register q in
  let rng = Rng.create ~seed () in
  let elt () = Elt.of_priority (Rng.int rng (1 lsl key_bits)) in
  for _ = 1 to preload do
    S.insert h (elt ())
  done;
  S.flush h;
  let r = Probe.recorder ~stride:1 ~capacity:(batch * replay_pairs) 3 in
  let th = TS.wrap r h in
  let snap0 = Ledger.snapshot (module S) q in
  let ins16 = Samples.create replay_pairs and ext16 = Samples.create replay_pairs in
  let empty = ref 0 in
  let pass timed =
    for _ = 1 to replay_pairs do
      let t0 = Timing.now_ns () in
      for _ = 1 to batch do
        if timed then TS.insert th (elt ()) else S.insert h (elt ())
      done;
      S.flush h;
      let t1 = Timing.now_ns () in
      let rec gather k =
        if k < batch then begin
          let e = if timed then TS.extract th else S.extract h in
          if Elt.is_none e then incr empty else gather (k + 1)
        end
      in
      gather 0;
      let t2 = Timing.now_ns () in
      if not timed then begin
        Samples.add ins16 (t1 - t0);
        Samples.add ext16 (t2 - t1)
      end
    done
  in
  pass true;
  let snap1 = Ledger.snapshot (module S) q in
  let work =
    Ledger.work snap0 snap1 ~inserts:(batch * replay_pairs)
      ~extracts:((batch * replay_pairs) + !empty) ~empty:!empty
  in
  pass false;
  let leaf = S.Debug.leaf_level q in
  S.unregister h;
  let p50 s = Samples.percentile (Samples.sorted_of_list [ s ]) 50.0 in
  (r, work, leaf, p50 ins16, p50 ext16)

(* {2 The workload} *)

let kill_live () =
  List.iter
    (fun s ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid s.pid))
    !live;
  live := []

let run ~seed ~seconds ~traced ~server_exe =
  Fun.protect ~finally:kill_live @@ fun () ->
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Set-up: server spawn until its first Pong, several times; the last
     server is the one measured. *)
  let setup_times = Array.make setups 0.0 and last = ref None and setup_checks = ref [] in
  for i = 0 to setups - 1 do
    Option.iter
      (fun (s, c) ->
        Unix.close c.fd;
        let _, code = stop s in
        setup_checks :=
          ( Printf.sprintf "set-up server %d exit" (i - 1),
            if code = 0 then Ok () else Checks.fail "exited %d" code )
          :: !setup_checks)
      !last;
    let t0 = Timing.now_ns () in
    let s = spawn server_exe in
    let c = connect s.port in
    (match call_sync c P.Ping with Ok P.Pong -> () | _ -> failwith "no Pong from zmsq_server");
    setup_times.(i) <- float_of_int (Timing.now_ns () - t0) /. 1e9;
    last := Some (s, c)
  done;
  let server, c0 = Option.get !last in
  let c =
    {
      conns = [| c0; connect server.port |];
      rng = Rng.create ~seed ();
      next_id = 0;
      seen = Bytes.make (1 lsl 20) '\000';
      acked = 0;
      extracted = 0;
      dups = 0;
      codec = Probe.recorder ~stride:1 ~capacity:(if traced then 1 lsl 18 else 1) 1;
      dead = false;
    }
  in
  let preload_elts =
    Array.init preload (fun k -> Elt.pack ~priority:(Rng.int c.rng (1 lsl key_bits)) ~payload:k)
  in
  c.next_id <- preload;
  let preloaded =
    match call_sync c0 (P.Insert { budget_ns = insert_budget_ns; elts = preload_elts }) with
    | Ok (P.Inserted k) -> k
    | _ -> failwith "preload Insert failed"
  in
  let main_rec = Probe.recorder ~capacity:16 0 in
  (* Phase A. *)
  let a =
    phase ~seed ~rate:rate_a ~duration_ns:(int_of_float (seconds *. 1e9))
      ~windows:(Gate.segments ~seconds) ~traced_windows:traced
  in
  let a_t0 = Timing.now_ns () in
  let a_end = run_phase c a in
  Probe.span main_rec ~name:Probe.n_segment ~start:a_t0 ~stop:(Timing.now_ns ()) ~id:a.id ~parent:0;
  (* The ramp, traced runs only. Phase A is its first step. *)
  let steps = ref [ (rate_a, score a ~outstanding_at_end:a_end) ] in
  let max_level = ref 0 in
  if traced && not c.dead then begin
    max_level := ladder_level (stats c0);
    let rec step k rate =
      if k < ramp_steps && not c.dead then begin
        let ph =
          phase ~seed:(seed + k + 1) ~rate ~duration_ns:step_ns ~windows:1 ~traced_windows:false
        in
        let t0 = Timing.now_ns () in
        let outstanding_at_end = run_phase c ph in
        Probe.span main_rec ~name:Probe.n_segment ~start:t0 ~stop:(Timing.now_ns ()) ~id:ph.id
          ~parent:0;
        max_level := max !max_level (ladder_level (stats c0));
        let s = score ph ~outstanding_at_end in
        steps := (rate, s) :: !steps;
        if s <= 1.0 then step (k + 1) (rate *. sqrt 2.0)
      end
    in
    step 0 ramp_start
  end;
  let final = if traced && not c.dead then stats c0 else Json.Null in
  let peak_rss_mb = Outcome.peak_rss_mb (Some server.pid) in
  let unanswered = outstanding c in
  Array.iter (fun k -> Unix.close k.fd) c.conns;
  let drained, exit_code = stop server in
  let check =
    if unanswered > 0 || c.dead then
      Checks.fail "%d RPCs unanswered (connection %s)" unanswered
        (if c.dead then "failed" else "open")
    else
      Checks.rpc
        {
          Checks.preload = preloaded;
          acked = c.acked;
          extracted = c.extracted;
          duplicates = c.dups;
          drained;
          exit_code;
        }
  in
  (* Latency: medians over phase A's windows (the untraced ones in a
     traced run). *)
  let plain_w, traced_w = Gate.by_tracing ~traced a.lat in
  let median_of ws p =
    Samples.median
      (Array.map (fun s -> float_of_int (Samples.percentile (Samples.sorted_of_list [ s ]) p)) ws)
  in
  let p50 = median_of plain_w 50.0 and p90 = median_of plain_w 90.0 in
  let tail = Samples.summarize (Array.to_list plain_w) in
  let lag = Samples.summarize [ a.lag ] in
  let n_a = Array.length a.sched in
  let failed = a.failed + (n_a - a.answered) in
  let gen_lag_pct = Openloop.lag_pct ~lag_p99_ns:lag.Samples.p99 ~rate:rate_a in
  let layer, diag_layer =
    if not traced then ([], [])
    else begin
      let r, work, leaf, ins16, ext16 = replay ~seed in
      let encode = Ledger.pctl [ c.codec.Probe.ins ] 50.0 in
      let decode = Ledger.pctl [ c.codec.Probe.ext ] 50.0 in
      let queue = float_of_int (ins16 + ext16) /. 2.0 in
      let residual = p50 -. encode -. decode -. queue in
      let traced_p50 = median_of traced_w 50.0 in
      let max_rate_rps = max_rate (List.rev !steps) in
      ( Ledger.metrics
          {
            Ledger.recorders = [ r ];
            work;
            leaf_level = leaf;
            queue_share_pct = 100.0 *. queue /. p50;
            topk_pct = 0.0;
            reexpand_pct = 0.0;
            net =
              Some
                {
                  Ledger.codec_pct = 100.0 *. (encode +. decode) /. p50;
                  residual_pct = 100.0 *. residual /. p50;
                  throttled_pct =
                    Outcome.pct (stat_int final "throttled") (stat_int final "accepted");
                  max_ladder_level = !max_level;
                  max_rate_rps;
                };
            gen_lag_pct;
            trace_overhead_pct = Ledger.overhead_pct ~plain:p50 ~traced:traced_p50;
            tail;
          },
        [
          ("net.encode_ns", encode);
          ("net.decode_ns", decode);
          ("shard.insert16_ns", float_of_int ins16);
          ("shard.extract16_ns", float_of_int ext16);
          ("net.residual_us", residual /. 1e3);
          ("max_rate_rps", max_rate_rps);
          ("ramp_steps", float_of_int (List.length !steps - 1));
        ] )
    end
  in
  ( {
      Outcome.workload = "rpc_ramp";
      checks = List.rev !setup_checks @ [ ("conservation+server exit", check) ];
      attempted = n_a;
      failed;
      e2e =
        [
          ("setup_s", Samples.median setup_times);
          ("p50_us", p50 /. 1e3);
          ("p90_us", p90 /. 1e3);
          ("peak_rss_mb", peak_rss_mb);
        ];
      layer;
      diag =
        [
          ("rpc_p50_us", p50 /. 1e3);
          ("rpc_p90_us", p90 /. 1e3);
          ("fail_pct", Outcome.pct failed n_a);
          ("gen_lag_p99_us", Outcome.us_of_ns lag.Samples.p99);
          ("gen_lag_pct", gen_lag_pct);
          ("tail.p99_us", Outcome.us_of_ns tail.Samples.p99);
          ("tail.p99_beyond", float_of_int tail.Samples.beyond_p99);
          ("tail.p999_us", Outcome.us_of_ns tail.Samples.p999);
          ("tail.p999_beyond", float_of_int tail.Samples.beyond_p999);
          ("samples", float_of_int tail.Samples.n);
        ]
        @ diag_layer;
    },
    [ main_rec; c.codec ] )
