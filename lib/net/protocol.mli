(** The ZMSQ RPC vocabulary and its binary encoding (DESIGN.md §12).

    Every message is one {!Frame} payload: a 1-byte opcode followed by
    fixed-width big-endian fields. Elements travel as their packed
    {!Zmsq_pq.Elt.t} integer (8 bytes); deadline budgets are nanoseconds
    relative to receipt (a wall-clock-free contract that survives clock
    skew between client and server). Shed decisions come back as typed
    {!err_code}s — the protocol has no silent-drop shape. *)

type req =
  | Ping
  | Insert of { budget_ns : int; elts : Zmsq_pq.Elt.t array }
      (** Batched insert; the server applies the batch and flushes it as
          one unit (the staged-buffer flush boundary). [budget_ns] is the
          client's patience: a batch still queued on the socket past it
          is refused, not half-applied. *)
  | Extract of { budget_ns : int; max_n : int }
      (** Extract up to [max_n] elements, waiting at most [budget_ns]
          for the first one. An empty [Elements] reply means the budget
          expired on an empty queue. *)
  | Stats  (** JSON server+queue statistics (the shed-accounting view) *)

type err_code =
  | Throttled  (** over the inflight window or ladder step 1: retryable *)
  | Shed  (** ladder step 2 sheds inserts: retryable after backoff *)
  | Rejected  (** ladder step 3 or connection limit: back off hard *)
  | Deadline_expired  (** budget exhausted before the queue was touched *)
  | Closed  (** queue draining/closed (shutdown in progress) *)
  | Bad_request  (** undecodable or ill-typed request *)
  | Too_large  (** batch beyond [max_batch] or frame near the limit *)

type resp =
  | Pong
  | Inserted of int
      (** elements actually applied — may be short of the batch if the
          queue closed mid-batch; never silently short otherwise *)
  | Elements of Zmsq_pq.Elt.t array
  | Stats_json of string
  | Error of err_code * string

val max_batch : int
(** Largest element count in one [Insert]/[Extract] (4096). *)

val err_code_name : err_code -> string

val resp_name : resp -> string
(* constructor name, for test failure messages *)
val retryable : err_code -> bool

val encode_req : req -> string
val encode_resp : resp -> string

val decode_req : string -> (req, err_code * string) result
(** Validation is strict: unknown opcodes, negative budgets, negative
    (sentinel) elements, zero/oversized batch counts and length
    mismatches are loud errors carrying the {!err_code} the server
    should answer with. *)

val decode_resp : string -> (resp, string) result
