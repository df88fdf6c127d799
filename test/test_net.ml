(* Wire framing, protocol vocabulary, retry backoff and the in-process
   server end-to-end (lib/net). The framing property tests split every
   frame at every byte boundary — the exact adversary the incremental
   decoder exists for. *)

module Frame = Zmsq_net.Frame
module Protocol = Zmsq_net.Protocol
module Retry = Zmsq_net.Retry
module Client = Zmsq_net.Client
module Server = Zmsq_net.Server
module Elt = Zmsq_pq.Elt

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* {2 Framing} *)

let drain_frames dec =
  let rec go acc =
    match Frame.next dec with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "unexpected framing error: %s" (Frame.error_to_string e)
  in
  go []

let test_frame_roundtrip () =
  let payloads = [ "a"; "hello"; String.make 300 'x'; "\x00\xff\x01" ] in
  let stream = String.concat "" (List.map Frame.encode payloads) in
  (* One gulp. *)
  let d = Frame.decoder () in
  Frame.feed_string d stream;
  check (Alcotest.list Alcotest.string) "one gulp" payloads (drain_frames d);
  (* Byte by byte. *)
  let d = Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      Frame.feed d (Bytes.make 1 c) 0 1;
      got := !got @ drain_frames d)
    stream;
  check (Alcotest.list Alcotest.string) "byte by byte" payloads !got

(* Every split point of the concatenated stream: feed [0,i) then
   [i,len) and require the identical payload sequence. *)
let test_frame_every_split () =
  let payloads = [ "ab"; String.make 37 'q'; "z"; String.make 9 '\xfe' ] in
  let stream = String.concat "" (List.map Frame.encode payloads) in
  let n = String.length stream in
  for i = 0 to n do
    let d = Frame.decoder () in
    Frame.feed_string d (String.sub stream 0 i);
    let got = drain_frames d in
    Frame.feed_string d (String.sub stream i (n - i));
    let got = got @ drain_frames d in
    if got <> payloads then Alcotest.failf "split at %d lost or reordered frames" i
  done

let test_frame_rejects () =
  (* Oversized declared length: loud, sticky. *)
  let d = Frame.decoder ~max_frame:16 () in
  Frame.feed_string d (Frame.encode (String.make 17 'x'));
  (match Frame.next d with
  | Error (Frame.Oversized 17) -> ()
  | _ -> Alcotest.fail "oversized frame accepted");
  (* Sticky: even a well-formed follow-up frame is refused. *)
  Frame.feed_string d (Frame.encode "ok");
  (match Frame.next d with
  | Error (Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "poisoned decoder yielded a frame");
  checkb "poisoned" true (Frame.poisoned d <> None);
  (* Zero-length frame. *)
  let d = Frame.decoder () in
  Frame.feed_string d "\x00\x00\x00\x00";
  (match Frame.next d with
  | Error Frame.Empty_frame -> ()
  | _ -> Alcotest.fail "empty frame accepted");
  (* Torn frame: half a payload then EOF — [pending] exposes the
     stranded bytes so the server can classify the death. *)
  let d = Frame.decoder () in
  let f = Frame.encode "0123456789" in
  Frame.feed_string d (String.sub f 0 (String.length f - 4));
  (match Frame.next d with
  | Ok None -> ()
  | _ -> Alcotest.fail "torn frame should just be incomplete");
  checkb "stranded bytes visible" true (Frame.pending d > 0);
  (* Encode refuses the unframeable. *)
  checkb "empty payload refused" true
    (match Frame.encode "" with exception Invalid_argument _ -> true | _ -> false)

(* {2 Protocol vocabulary} *)

let reqs_equal a b =
  match (a, b) with
  | Protocol.Insert { budget_ns = b1; elts = e1 }, Protocol.Insert { budget_ns = b2; elts = e2 }
    ->
      b1 = b2 && e1 = e2
  | x, y -> x = y

let test_protocol_roundtrip () =
  let elts = Array.init 5 (fun i -> Elt.pack ~priority:(i * 7) ~payload:(i + 1)) in
  let reqs =
    [
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Insert { budget_ns = 123_456; elts };
      Protocol.Insert { budget_ns = 0; elts = [| Elt.pack ~priority:0 ~payload:0 |] };
      Protocol.Extract { budget_ns = max_int; max_n = Protocol.max_batch };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_req (Protocol.encode_req r) with
      | Ok r' -> checkb "req round-trip" true (reqs_equal r r')
      | Error (_, msg) -> Alcotest.failf "req failed to round-trip: %s" msg)
    reqs;
  let resps =
    [
      Protocol.Pong;
      Protocol.Inserted 42;
      Protocol.Elements [||];
      Protocol.Elements elts;
      Protocol.Stats_json "{\"x\":1}";
      Protocol.Error (Protocol.Throttled, "w");
      Protocol.Error (Protocol.Shed, "");
      Protocol.Error (Protocol.Rejected, "r");
      Protocol.Error (Protocol.Deadline_expired, "d");
      Protocol.Error (Protocol.Closed, "c");
      Protocol.Error (Protocol.Bad_request, "b");
      Protocol.Error (Protocol.Too_large, "t");
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_resp (Protocol.encode_resp r) with
      | Ok r' -> checkb "resp round-trip" true (r = r')
      | Error msg -> Alcotest.failf "resp failed to round-trip: %s" msg)
    resps

let test_protocol_rejects () =
  let bad code s =
    match Protocol.decode_req s with
    | Error (c, _) -> checkb "error code" true (c = code)
    | Ok _ -> Alcotest.failf "accepted malformed request %S" s
  in
  bad Protocol.Bad_request "";
  bad Protocol.Bad_request "\x07";
  (* unknown opcode *)
  bad Protocol.Bad_request "\x01x";
  (* ping with payload *)
  bad Protocol.Bad_request "\x02\x00\x00";
  (* truncated insert *)
  (* Batch over max: header claims max_batch+1 elements. *)
  let b = Bytes.create 17 in
  Bytes.set b 0 '\x02';
  Bytes.set_int64_be b 1 1000L;
  Bytes.set_int64_be b 9 (Int64.of_int (Protocol.max_batch + 1));
  bad Protocol.Too_large (Bytes.to_string b);
  (* Negative budget is a client bug, not a clamp: loud. *)
  let b = Bytes.create 17 in
  Bytes.set b 0 '\x03';
  Bytes.set_int64_be b 1 (-1L);
  Bytes.set_int64_be b 9 4L;
  bad Protocol.Bad_request (Bytes.to_string b);
  (* Insert whose element payload lies about its length. *)
  let good =
    Protocol.encode_req
      (Protocol.Insert { budget_ns = 1; elts = [| Elt.pack ~priority:1 ~payload:1 |] })
  in
  bad Protocol.Bad_request (String.sub good 0 (String.length good - 1));
  checkb "retryable partition" true
    (Protocol.retryable Protocol.Throttled
    && Protocol.retryable Protocol.Shed
    && Protocol.retryable Protocol.Rejected
    && (not (Protocol.retryable Protocol.Deadline_expired))
    && (not (Protocol.retryable Protocol.Closed))
    && not (Protocol.retryable Protocol.Bad_request))

(* {2 Retry backoff} *)

let test_retry_schedule () =
  let policy =
    { Retry.base_ns = 1000; cap_ns = 50_000; max_attempts = 20; budget_ns = max_int }
  in
  let s1 = Retry.schedule ~seed:7 policy 12 in
  let s2 = Retry.schedule ~seed:7 policy 12 in
  check (Alcotest.list Alcotest.int) "same seed, same schedule" s1 s2;
  checkb "different seed, different schedule" true
    (Retry.schedule ~seed:8 policy 12 <> s1);
  checki "full schedule" 12 (List.length s1);
  (* Decorrelated-jitter envelope: base <= d_k <= min(cap, 3 * d_{k-1}). *)
  let prev = ref policy.Retry.base_ns in
  List.iter
    (fun d ->
      checkb "above base" true (d >= policy.Retry.base_ns);
      checkb "below cap" true (d <= policy.Retry.cap_ns);
      checkb "below 3x prev (or cap floor)" true
        (d <= max policy.Retry.cap_ns (3 * !prev));
      prev := d)
    s1

let test_retry_budgets () =
  (* Attempt exhaustion. *)
  let t =
    Retry.create ~seed:1
      { Retry.base_ns = 10; cap_ns = 100; max_attempts = 3; budget_ns = max_int }
  in
  let rec spin n =
    match Retry.on_failure t ~reason:"shed" with
    | Retry.Retry_after _ -> spin (n + 1)
    | Retry.Gave_up msg -> (n, msg)
  in
  let n, msg = spin 0 in
  checki "max_attempts honored" 3 n;
  checkb "typed give-up names the cause" true
    (Astring.String.is_infix ~affix:"attempts exhausted" msg
    && Astring.String.is_infix ~affix:"shed" msg);
  (* Sleep-budget exhaustion: the cumulative schedule may never exceed
     budget_ns, and the give-up says so. *)
  let t =
    Retry.create ~seed:2
      { Retry.base_ns = 1000; cap_ns = 1_000_000; max_attempts = 1000; budget_ns = 20_000 }
  in
  let rec spin slept =
    match Retry.on_failure t ~reason:"overload" with
    | Retry.Retry_after d -> spin (slept + d)
    | Retry.Gave_up msg -> (slept, msg)
  in
  let slept, msg = spin 0 in
  checkb "cumulative sleep within budget" true (slept <= 20_000);
  checkb "budget give-up typed" true
    (Astring.String.is_infix ~affix:"retry budget exhausted" msg);
  (* Success resets the decorrelation state. *)
  Retry.on_success t;
  (match Retry.on_failure t ~reason:"x" with
  | Retry.Retry_after _ -> ()
  | Retry.Gave_up _ -> Alcotest.fail "reset retry refused to retry");
  checki "attempts reset visible" 1 (Retry.attempts t)

(* {2 End-to-end: in-process server} *)

module SQ = Zmsq.Shard.Default
module Srv = Server.Make (SQ)

(* Every in-process case runs at [workers] 1 and 2: with one worker,
   accepts, the ladder tick and RPC service share a single loop. *)
let with_server ~workers ?(config = Srv.default_config) k =
  let q =
    SQ.create
      ~params:{ Zmsq.Params.default with blocking = true; shards = 2; stickiness = 4 }
      ()
  in
  let srv =
    Srv.create ~config:{ config with Srv.workers } ~q
      ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      ()
  in
  Fun.protect ~finally:(fun () -> Srv.shutdown srv) (fun () -> k q srv)

let call_ok c req =
  match Client.call c req with
  | Ok resp -> resp
  | Error msg -> Alcotest.failf "transport error: %s" msg

let test_server_insert_extract ~workers () =
  with_server ~workers (fun _q srv ->
      let c = Client.connect (Srv.sockaddr srv) in
      (match call_ok c Protocol.Ping with
      | Protocol.Pong -> ()
      | _ -> Alcotest.fail "ping did not pong");
      let elts = Array.init 100 (fun i -> Elt.pack ~priority:i ~payload:i) in
      (match call_ok c (Protocol.Insert { budget_ns = 1_000_000_000; elts }) with
      | Protocol.Inserted 100 -> ()
      | r -> Alcotest.failf "insert answered %s" (Protocol.resp_name r));
      let got = ref 0 in
      while !got < 100 do
        match
          call_ok c (Protocol.Extract { budget_ns = 200_000_000; max_n = 32 })
        with
        | Protocol.Elements es ->
            Array.iter (fun e -> checkb "element well-formed" true (not (Elt.is_none e))) es;
            if Array.length es = 0 then Alcotest.fail "empty reply with elements queued";
            got := !got + Array.length es
        | r -> Alcotest.failf "extract answered %s" (Protocol.resp_name r)
      done;
      checki "conservation over the wire" 100 !got;
      (* Extract on an empty queue with a modest budget: a successful
         empty reply once the budget is spent, not an error. *)
      (match call_ok c (Protocol.Extract { budget_ns = 30_000_000; max_n = 4 }) with
      | Protocol.Elements [||] -> ()
      | r -> Alcotest.failf "empty-queue extract answered %s" (Protocol.resp_name r));
      Client.close c)

let test_server_deadline_doomed ~workers () =
  with_server ~workers (fun _q srv ->
      let c = Client.connect (Srv.sockaddr srv) in
      (* Budget 0: expired by the time the worker dequeues it from the
         socket — refused without touching the queue. *)
      (match
         call_ok c
           (Protocol.Insert
              { budget_ns = 0; elts = [| Elt.pack ~priority:1 ~payload:1 |] })
       with
      | Protocol.Error (Protocol.Deadline_expired, _) -> ()
      | r -> Alcotest.failf "doomed insert answered %s" (Protocol.resp_name r));
      (match call_ok c (Protocol.Extract { budget_ns = 0; max_n = 1 }) with
      | Protocol.Error (Protocol.Deadline_expired, _) -> ()
      | r -> Alcotest.failf "doomed extract answered %s" (Protocol.resp_name r));
      (* The queue was never touched. *)
      (match call_ok c Protocol.Stats with
      | Protocol.Stats_json s -> (
          match Zmsq_obs.Json.of_string s with
          | Ok (Zmsq_obs.Json.Obj kvs) ->
              checkb "nothing applied" true
                (List.assoc "elts_applied" kvs = Zmsq_obs.Json.Int 0);
              checkb "deadline refusals counted" true
                (List.assoc "deadline_expired" kvs = Zmsq_obs.Json.Int 2)
          | _ -> Alcotest.fail "stats json malformed")
      | r -> Alcotest.failf "stats answered %s" (Protocol.resp_name r));
      Client.close c)

let test_server_shed_ladder ~workers () =
  let config =
    {
      Srv.default_config with
      Srv.max_elts_inflight = 64;
      tick_ms = 1.0;
    }
  in
  with_server ~workers ~config (fun _q srv ->
      let c = Client.connect (Srv.sockaddr srv) in
      (* Flood without consuming: backlog >= 4*hwm forces Reject. *)
      let elts = Array.init 256 (fun i -> Elt.pack ~priority:i ~payload:1) in
      (match call_ok c (Protocol.Insert { budget_ns = 1_000_000_000; elts }) with
      | Protocol.Inserted 256 -> ()
      | r -> Alcotest.failf "flood insert answered %s" (Protocol.resp_name r));
      Unix.sleepf 0.05 (* two ladder ticks *);
      checkb "ladder escalated" true (Srv.level srv >= 2);
      let refused = ref false in
      for _ = 1 to 3 do
        match
          Client.call c
            (Protocol.Insert
               { budget_ns = 1_000_000_000; elts = [| Elt.pack ~priority:1 ~payload:1 |] })
        with
        | Ok (Protocol.Error (code, _))
          when code = Protocol.Shed || code = Protocol.Rejected ->
            refused := true
        | Ok _ | Error _ -> ()
      done;
      checkb "inserts shed with a typed, retryable error" true !refused;
      (* Extraction is never shed — it is what brings the level down. *)
      (match call_ok c (Protocol.Extract { budget_ns = 100_000_000; max_n = 64 }) with
      | Protocol.Elements es -> checkb "extract served under shed" true (Array.length es > 0)
      | r -> Alcotest.failf "extract under shed answered %s" (Protocol.resp_name r));
      Client.close c)

let test_server_pipelined_fifo_throttle ~workers () =
  let config = { Srv.default_config with Srv.inflight_window = 1 } in
  with_server ~workers ~config (fun _q srv ->
      (* Raw socket: pipeline two inserts back to back. The second must
         be Throttled (window 1), and the responses must come back in
         request order. *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Srv.sockaddr srv);
      let req i =
        Frame.encode
          (Protocol.encode_req
             (Protocol.Insert
                { budget_ns = 1_000_000_000; elts = [| Elt.pack ~priority:i ~payload:i |] }))
      in
      let burst = req 1 ^ req 2 in
      ignore (Unix.write_substring fd burst 0 (String.length burst));
      let dec = Frame.decoder () in
      let buf = Bytes.create 4096 in
      let next_resp () =
        let rec go () =
          match Frame.next dec with
          | Ok (Some p) -> (
              match Protocol.decode_resp p with
              | Ok r -> r
              | Error m -> Alcotest.failf "undecodable response: %s" m)
          | Ok None ->
              let n = Unix.read fd buf 0 4096 in
              if n = 0 then Alcotest.fail "server closed mid-burst";
              Frame.feed dec buf 0 n;
              go ()
          | Error e -> Alcotest.failf "framing error: %s" (Frame.error_to_string e)
        in
        go ()
      in
      (match next_resp () with
      | Protocol.Inserted 1 -> ()
      | r -> Alcotest.failf "first pipelined response was %s" (Protocol.resp_name r));
      (match next_resp () with
      | Protocol.Error (Protocol.Throttled, _) -> ()
      | r -> Alcotest.failf "second pipelined response was %s" (Protocol.resp_name r));
      Unix.close fd)

let test_server_bad_frame_kills_conn ~workers () =
  with_server ~workers (fun _q srv ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Srv.sockaddr srv);
      (* An impossible length prefix: the server must cut the cord (no
         resync point exists), not hang or crash. *)
      let b = Bytes.create 4 in
      Bytes.set_int32_be b 0 0x7FFFFFFFl;
      ignore (Unix.write fd b 0 4);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      checki "connection closed on framing violation" 0 (Unix.read fd (Bytes.create 64) 0 64);
      Unix.close fd;
      (* And an undecodable-but-well-framed RPC gets a typed error while
         the connection survives. *)
      let c = Client.connect (Srv.sockaddr srv) in
      let fd2 = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd2 (Srv.sockaddr srv);
      let junk = Frame.encode "\x42garbage" in
      ignore (Unix.write_substring fd2 junk 0 (String.length junk));
      let dec = Frame.decoder () in
      let buf = Bytes.create 4096 in
      let rec read_resp () =
        match Frame.next dec with
        | Ok (Some p) -> Protocol.decode_resp p
        | Ok None ->
            let n = Unix.read fd2 buf 0 4096 in
            Frame.feed dec buf 0 n;
            read_resp ()
        | Error e -> Alcotest.failf "framing error: %s" (Frame.error_to_string e)
      in
      (match read_resp () with
      | Ok (Protocol.Error (Protocol.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "bad opcode not answered with Bad_request");
      (match call_ok c Protocol.Ping with
      | Protocol.Pong -> ()
      | _ -> Alcotest.fail "server unhealthy after bad frames");
      Unix.close fd2;
      Client.close c)

let test_server_graceful_drain ~workers () =
  with_server ~workers (fun q srv ->
      let c = Client.connect (Srv.sockaddr srv) in
      let n = 500 in
      let elts = Array.init n (fun i -> Elt.pack ~priority:(i land 1023) ~payload:i) in
      Array.iteri
        (fun i _ ->
          if i mod 100 = 0 then
            match
              call_ok c
                (Protocol.Insert
                   { budget_ns = 1_000_000_000; elts = Array.sub elts i 100 })
            with
            | Protocol.Inserted 100 -> ()
            | r -> Alcotest.failf "insert answered %s" (Protocol.resp_name r))
        elts;
      (* Take some over the wire, leave the rest for the drain. *)
      let taken = ref 0 in
      (match call_ok c (Protocol.Extract { budget_ns = 100_000_000; max_n = 128 }) with
      | Protocol.Elements es -> taken := Array.length es
      | r -> Alcotest.failf "extract answered %s" (Protocol.resp_name r));
      Srv.shutdown srv;
      checki "conservation through shutdown" n (!taken + Srv.drained_at_shutdown srv);
      checkb "queue closed" true (SQ.lifecycle q = Zmsq.Closed);
      checki "no handle leaked" 0 (SQ.Debug.live_handles q);
      checki "nothing left staged" 0 (SQ.Debug.buffered q);
      (* A post-shutdown RPC gets a typed Closed/Rejected answer or a
         clean connection refusal — never a hang. *)
      (match
         Client.call c
           (Protocol.Insert { budget_ns = 1_000_000; elts = [| Elt.pack ~priority:1 ~payload:1 |] })
       with
      | Ok (Protocol.Error _) | Error _ -> ()
      | Ok r -> Alcotest.failf "post-shutdown insert answered %s" (Protocol.resp_name r));
      Client.close c;
      (* The shed-accounting identity at quiescence:
         accepted = completed + refused + dropped (in_flight = 0). *)
      match Zmsq_obs.Json.of_string (Srv.stats_json srv) with
      | Ok (Zmsq_obs.Json.Obj kvs) ->
          let geti k =
            match List.assoc k kvs with Zmsq_obs.Json.Int i -> i | _ -> -1
          in
          checki "in_flight quiescent" 0 (geti "in_flight");
          checki "shed-accounting identity" (geti "accepted")
            (geti "completed" + geti "refused" + geti "dropped");
          checki "element conservation"
            (geti "elts_applied" + geti "elts_requeued")
            (geti "elts_extracted" + geti "elts_drained_shutdown")
      | _ -> Alcotest.fail "stats json malformed")

let test_server_abrupt_disconnect_reclaims ~workers () =
  with_server ~workers (fun q srv ->
      (* Kill a connection mid-frame: the server must orphan its handle
         and reclaim it (staged inserts publish, hazard slot frees). *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Srv.sockaddr srv);
      let full =
        Frame.encode
          (Protocol.encode_req
             (Protocol.Insert
                { budget_ns = 1_000_000_000; elts = [| Elt.pack ~priority:3 ~payload:3 |] }))
      in
      (* Complete insert, then half a frame, then vanish. *)
      ignore (Unix.write_substring fd full 0 (String.length full));
      Unix.sleepf 0.05;
      ignore (Unix.write_substring fd full 0 (String.length full / 2));
      Unix.close fd;
      Unix.sleepf 0.1;
      let snap = Zmsq_obs.Metrics.snapshot (Srv.metrics srv) in
      let count name =
        match List.assoc_opt name snap.Zmsq_obs.Metrics.counters with
        | Some n -> n
        | None -> 0
      in
      checki "connection orphaned" 1 (count "conn_orphaned_total");
      checki "its insert survived" 1 (count "elts_applied_total");
      (* The published element is still extractable by a healthy client. *)
      let c = Client.connect (Srv.sockaddr srv) in
      (match call_ok c (Protocol.Extract { budget_ns = 200_000_000; max_n = 4 }) with
      | Protocol.Elements [| e |] -> checki "the orphan's element" 3 (Elt.priority e)
      | r -> Alcotest.failf "extract answered %s" (Protocol.resp_name r));
      Client.close c;
      ignore q)

let at_workers f () =
  List.iter
    (fun workers ->
      Printf.printf "workers = %d\n%!" workers;
      f ~workers ())
    [ 1; 2 ]

(* {2 The zmsq_server binary} *)

(* The built server: under [dune runtest] the test runs in
   _build/default/test; run by hand, it runs from the repository root. *)
let server_exe () =
  match
    List.find_opt Sys.file_exists
      [ "../bin/zmsq_server.exe"; "_build/default/bin/zmsq_server.exe" ]
  with
  | Some p -> p
  | None -> Alcotest.fail "bin/zmsq_server.exe is not built"

(* The retry-storm guard and its buggy twin. Every fourth send is severed
   client-side, so every run retries on every seed. A client on a paced
   schedule must pass the guard; the same client with a zero-backoff
   schedule must fail it, judged against the paced schedule. *)
let test_retry_storm_guard () =
  let module Loadgen = Zmsq_net.Loadgen in
  let paced = { Retry.base_ns = 500_000; cap_ns = 20_000_000; max_attempts = 6; budget_ns = 150_000_000 } in
  let zero = { paced with Retry.base_ns = 0; cap_ns = 0 } in
  with_server ~workers:1 (fun _q srv ->
      let run seed retry =
        let sends = Atomic.make 0 in
        let fault () =
          if Atomic.fetch_and_add sends 1 mod 4 = 3 then Zmsq_prim.Faulty.Io_drop
          else Zmsq_prim.Faulty.Io_none
        in
        Loadgen.run
          {
            Loadgen.default_config with
            Loadgen.producers = 1;
            consumers = 1;
            duration_s = 0.1;
            retry;
            seed;
            fault = Some fault;
          }
          (Srv.sockaddr srv)
      in
      List.iter
        (fun seed ->
          let ok = run seed paced and twin = run seed zero in
          checkb (Printf.sprintf "seed %d: paced client retried" seed) true (ok.Loadgen.retries > 0);
          checkb (Printf.sprintf "seed %d: twin retried" seed) true (twin.Loadgen.retries > 0);
          (match Loadgen.retry_storm paced ok with
          | None -> ()
          | Some why -> Alcotest.failf "seed %d: paced client flagged: %s" seed why);
          checkb
            (Printf.sprintf "seed %d: zero-backoff twin flagged" seed)
            true
            (Loadgen.retry_storm paced twin <> None))
        [ 1; 2; 3; 4; 5 ])

(* SIGTERM the moment the listening line appears, as a benchmark or a
   process manager may: the signal handlers must already be in place, so
   every run drains and exits 0 instead of dying by the default action. *)
let test_server_sigterm_after_listening () =
  let exe = server_exe () in
  for run = 1 to 20 do
    let r, w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process exe [| exe; "--port"; "0" |] Unix.stdin Unix.stdout w in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let rec until_listening () =
      match input_line ic with
      | line ->
          if not (Astring.String.is_infix ~affix:"listening on" line) then
            until_listening ()
      | exception End_of_file -> Alcotest.failf "run %d: exited before listening" run
    in
    until_listening ();
    Unix.kill pid Sys.sigterm;
    let drained = ref false in
    (try
       while true do
         if Astring.String.is_infix ~affix:"zmsq_server: drained (" (input_line ic) then
           drained := true
       done
     with End_of_file -> ());
    close_in ic;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED n -> Alcotest.failf "run %d: exit code %d" run n
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Alcotest.failf "run %d: stopped by signal %d, no drain" run s);
    checkb (Printf.sprintf "run %d printed its drained line" run) true !drained
  done

let suite =
  [
    ("frame round-trip", `Quick, test_frame_roundtrip);
    ("frame every split boundary", `Quick, test_frame_every_split);
    ("frame loud rejection", `Quick, test_frame_rejects);
    ("protocol vocabulary round-trip", `Quick, test_protocol_roundtrip);
    ("protocol rejects malformed", `Quick, test_protocol_rejects);
    ("retry deterministic schedule", `Quick, test_retry_schedule);
    ("retry budgets exhaust loudly", `Quick, test_retry_budgets);
    ("retry storm guard flags zero backoff", `Slow, test_retry_storm_guard);
    ("server insert/extract e2e", `Slow, at_workers test_server_insert_extract);
    ("server doomed-work refusal", `Slow, at_workers test_server_deadline_doomed);
    ("server shed ladder", `Slow, at_workers test_server_shed_ladder);
    ("server pipelined FIFO + throttle", `Slow, at_workers test_server_pipelined_fifo_throttle);
    ("server survives bad frames", `Slow, at_workers test_server_bad_frame_kills_conn);
    ("server graceful drain", `Slow, at_workers test_server_graceful_drain);
    ("server reclaims abrupt disconnect", `Slow, at_workers test_server_abrupt_disconnect_reclaims);
    ("server binary drains on SIGTERM right after listening", `Slow,
      test_server_sigterm_after_listening);
  ]
