(* Standalone ZMSQ network server (see lib/net/server.mli and DESIGN.md
   §12). SIGTERM/SIGINT trigger the graceful drain: accepts stop, the
   queue walks Open → Draining → Closed, in-flight extracts are answered
   until exact emptiness, and the process exits 0 with a final stats
   line reporting how many elements the self-drain recovered. *)

module Srv = Zmsq_net.Server.Make (Zmsq.Shard.Default)

let usage () =
  prerr_endline
    "usage: zmsq_server [--port P] [--host H] [--shards N] [--workers N]\n\
    \                   [--max-conns N] [--window N] [--hwm N]\n\
    \                   [--secs S] [--stats-every S]\n\
     Serves the ZMSQ wire protocol (lib/net/protocol.mli) on H:P\n\
     (default 127.0.0.1:7171). --secs > 0 self-terminates after S\n\
     seconds (testing); otherwise runs until SIGTERM/SIGINT, then\n\
     drains gracefully.";
  exit 2

let () =
  let port = ref 7171 in
  let host = ref "127.0.0.1" in
  let shards = ref 4 in
  let cfg = ref Srv.default_config in
  let secs = ref 0.0 in
  let stats_every = ref 0.0 in
  let rec parse = function
    | [] -> ()
    | "--port" :: v :: rest ->
        port := int_of_string v;
        parse rest
    | "--host" :: v :: rest ->
        host := v;
        parse rest
    | "--shards" :: v :: rest ->
        shards := int_of_string v;
        parse rest
    | "--workers" :: v :: rest ->
        cfg := { !cfg with Srv.workers = int_of_string v };
        parse rest
    | "--max-conns" :: v :: rest ->
        cfg := { !cfg with Srv.max_conns = int_of_string v };
        parse rest
    | "--window" :: v :: rest ->
        cfg := { !cfg with Srv.inflight_window = int_of_string v };
        parse rest
    | "--hwm" :: v :: rest ->
        cfg := { !cfg with Srv.max_elts_inflight = int_of_string v };
        parse rest
    | "--secs" :: v :: rest ->
        secs := float_of_string v;
        parse rest
    | "--stats-every" :: v :: rest ->
        stats_every := float_of_string v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let q =
    Zmsq.Shard.Default.create
      ~params:{ Zmsq.Params.default with blocking = true; shards = !shards }
      ()
  in
  (* Handlers go in before the listening line: a process manager may send
     SIGTERM the moment it reads that line, and the default action would
     kill the process without a drain. *)
  let stop = Atomic.make false in
  let on_signal _ = Atomic.set stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string !host, !port) in
  let srv = Srv.create ~config:!cfg ~q ~addr () in
  (match Srv.sockaddr srv with
  | Unix.ADDR_INET (a, p) ->
      Printf.eprintf "zmsq_server: listening on %s:%d (%d shards, %d workers)\n%!"
        (Unix.string_of_inet_addr a) p !shards !cfg.Srv.workers
  | _ -> ());
  let t0 = Unix.gettimeofday () in
  let last_stats = ref t0 in
  while not (Atomic.get stop) do
    Unix.sleepf 0.05;
    let now = Unix.gettimeofday () in
    if !secs > 0.0 && now -. t0 >= !secs then Atomic.set stop true;
    if !stats_every > 0.0 && now -. !last_stats >= !stats_every then begin
      last_stats := now;
      Printf.eprintf "zmsq_server: %s\n%!" (Srv.stats_json srv)
    end
  done;
  prerr_endline "zmsq_server: draining...";
  Srv.shutdown srv;
  Printf.eprintf "zmsq_server: drained (%d elements recovered at shutdown)\n%!"
    (Srv.drained_at_shutdown srv);
  Printf.eprintf "zmsq_server: final %s\n%!" (Srv.stats_json srv)
