module Faulty = Zmsq_prim.Faulty

type t = {
  addr : Unix.sockaddr;
  max_frame : int;
  recv_timeout_s : float;
  fault : (unit -> Faulty.io_fault) option;
  mutable fd : Unix.file_descr option;
  mutable dec : Frame.decoder;
}

let set_opts fd =
  (match fd with
  | fd -> (
      try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()))

let connect ?(max_frame = Frame.max_frame_default) ?(recv_timeout_s = 5.0) ?fault addr =
  let t = { addr; max_frame; recv_timeout_s; fault; fd = None; dec = Frame.decoder ~max_frame () } in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd addr;
     set_opts fd;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout_s
   with e ->
     Unix.close fd;
     raise e);
  t.fd <- Some fd;
  t

let disconnect t =
  (match t.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.fd <- None;
  t.dec <- Frame.decoder ~max_frame:t.max_frame ()

let close = disconnect
let is_connected t = t.fd <> None

let reconnect t =
  disconnect t;
  let fd = Unix.socket (Unix.domain_of_sockaddr t.addr) Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd t.addr;
    set_opts fd;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.recv_timeout_s;
    t.fd <- Some fd;
    Ok ()
  with Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Unix.error_message e)

let write_all fd s off len =
  let off = ref off and left = ref len in
  while !left > 0 do
    let n = Unix.write_substring fd s !off !left in
    off := !off + n;
    left := !left - n
  done

(* The fault hook perturbs the *write* side: the server's read path must
   survive one-byte trickles, stalls, torn frames (a partial length
   prefix or payload followed by a hard disconnect) and mid-frame drops.
   Torn/drop faults surface to the caller as transport errors — exactly
   what a crashed client looks like from above. *)
let send t fd payload =
  let framed = Frame.encode payload in
  let n = String.length framed in
  let fault = match t.fault with Some f -> f () | None -> Faulty.Io_none in
  match fault with
  | Faulty.Io_none ->
      write_all fd framed 0 n;
      Ok ()
  | Faulty.Io_stall ->
      Unix.sleepf 0.002;
      write_all fd framed 0 n;
      Ok ()
  | Faulty.Io_short ->
      (* One byte, a breath, then the rest: server-side resumption. *)
      write_all fd framed 0 1;
      Unix.sleepf 0.0005;
      write_all fd framed 1 (n - 1);
      Ok ()
  | Faulty.Io_torn ->
      let cut = 1 + ((n - 1) / 2) in
      (try write_all fd framed 0 cut with Unix.Unix_error _ -> ());
      disconnect t;
      Error "injected torn frame"
  | Faulty.Io_drop ->
      disconnect t;
      Error "injected disconnect"

let recv t fd =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Frame.next t.dec with
    | Error e ->
        disconnect t;
        Error (Frame.error_to_string e)
    | Ok (Some payload) -> Ok payload
    | Ok None -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 ->
            disconnect t;
            Error "connection closed by server"
        | n ->
            Frame.feed t.dec buf 0 n;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            disconnect t;
            Error "receive timeout"
        | exception Unix.Unix_error (e, _, _) ->
            disconnect t;
            Error (Unix.error_message e))
  in
  go ()

let call t req =
  let attempt fd =
    match send t fd (Protocol.encode_req req) with
    | Error _ as e -> e
    | Ok () -> (
        match recv t fd with
        | Error _ as e -> e
        | Ok payload -> (
            match Protocol.decode_resp payload with
            | Ok resp -> Ok resp
            | Error msg ->
                disconnect t;
                Error ("undecodable response: " ^ msg)))
  in
  match t.fd with
  | Some fd -> (
      try attempt fd
      with Unix.Unix_error (e, _, _) ->
        disconnect t;
        Error (Unix.error_message e))
  | None -> (
      match reconnect t with
      | Error msg -> Error ("reconnect: " ^ msg)
      | Ok () -> (
          match t.fd with
          | None -> Error "reconnect raced"
          | Some fd -> (
              try attempt fd
              with Unix.Unix_error (e, _, _) ->
                disconnect t;
                Error (Unix.error_message e))))

let call_retry t ~retry req =
  let rec go () =
    match call t req with
    | Ok (Protocol.Error (code, msg)) when Protocol.retryable code -> (
        match Retry.on_failure retry ~reason:(Protocol.err_code_name code) with
        | Retry.Gave_up why -> Error why
        | Retry.Retry_after d ->
            Retry.pause retry d;
            ignore msg;
            go ())
    | Ok resp ->
        Retry.on_success retry;
        Ok resp
    | Error msg -> (
        match Retry.on_failure retry ~reason:("transport: " ^ msg) with
        | Retry.Gave_up why -> Error why
        | Retry.Retry_after d ->
            Retry.pause retry d;
            go ())
  in
  go ()
