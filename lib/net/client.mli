(** Blocking synchronous client for the ZMSQ wire protocol.

    One [t] is one connection with an in-order request/response
    discipline (the server preserves per-connection FIFO). Transport
    errors close the socket and surface as [Error]; {!call_retry}
    layers {!Retry}'s decorrelated backoff over both transport failures
    (reconnecting) and the server's retryable shed codes.

    A {!Zmsq_prim.Faulty.io_fault} hook makes the client hostile on
    demand: short writes, pre-write stalls, torn frames (a partial
    frame followed by deliberate disconnect) and mid-batch drops — the
    soak's wire-fault vocabulary. *)

type t

val connect :
  ?max_frame:int ->
  ?recv_timeout_s:float ->
  ?fault:(unit -> Zmsq_prim.Faulty.io_fault) ->
  Unix.sockaddr ->
  t
(** Raises [Unix.Unix_error] when the server is unreachable. *)

val call : t -> Protocol.req -> (Protocol.resp, string) result
(** One round trip. [Error] is a transport-level failure (connection
    torn, response undecodable, receive timeout); the connection is
    closed and a subsequent call reconnects. Server-side refusals come
    back as [Ok (Error (code, _))] — they are protocol, not transport. *)

val call_retry :
  t -> retry:Retry.t -> Protocol.req -> (Protocol.resp, string) result
(** {!call}, retrying transport errors and retryable protocol errors
    ([Throttled]/[Shed]/[Rejected]) per the retry state's schedule
    (sleeping between attempts through {!Retry.pause}). [Error] carries the {!Retry.Gave_up}
    message once the budget is exhausted. *)

val close : t -> unit
val is_connected : t -> bool
