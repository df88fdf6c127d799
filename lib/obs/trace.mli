(** Fixed-size per-domain ring buffers of timestamped events, dumped as
    Chrome [trace_event] JSON (open in chrome://tracing or Perfetto).

    Spans ({!span_begin}/{!span_end}) are stored on completion as a
    single begin-timestamp + duration record, so a wrapped ring never
    produces unbalanced begin/end pairs; {!instant} records point events
    (refill, split, expand, eventcount sleep/wake). When the ring is
    full the oldest events are overwritten — the dump is the trailing
    window, with the overwrite count reported in [otherData.dropped].

    Recording is wait-free and allocation-free after the first event per
    domain. Each domain writes only its own ring (domains beyond the slot
    count share rings, degrading the trace but not safety). *)

type t

(** Event vocabulary of the ZMSQ hot paths; see OBSERVABILITY.md. *)
type kind =
  | Insert
  | Extract
  | Refill
  | Split
  | Expand
  | Forced_insert
  | Min_swap
  | Sleep
  | Wake
  | Buf_flush  (** a per-domain insert buffer published into the tree *)
  | Close  (** a lifecycle transition ([close] or drain completion) *)
  | Reclaim  (** an orphaned handle's buffer reclaimed by the scavenger *)
  | Drain  (** the whole Draining window, from [close ~drain:true] to empty *)
  | Shard_select
      (** a sharded queue's routing decision ([arg] = the chosen shard):
          a sticky-insert re-roll or a two-choice extraction pick *)
  | Accept
      (** the server front-end accepted a connection ([arg] = live
          connection count after the accept) *)
  | Rpc
      (** one server RPC from dequeue-off-the-socket to response flushed
          ([arg] = the request opcode) *)

val kind_name : kind -> string

val kind_code : kind -> int
(** The kind's code in recorded events. Codes are stable: a kind that is
    removed retires its code rather than renumbering the ones after it. *)

val kind_of_code : int -> kind
(** Inverse of {!kind_code}; raises [Invalid_argument] on a code that
    names no kind. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is events retained per domain ring (default 4096, min 16). *)

val span_begin : t -> kind -> unit
val span_end : t -> kind -> unit
(** Must be called by the same domain, properly nested; a mismatched
    [span_end] discards the open spans of that domain. *)

val complete : t -> ?arg:int -> ?dur:int -> t0:int -> kind -> unit
(** [complete t ~t0 k] records a span from the caller-supplied begin
    timestamp [t0] (from {!Zmsq_util.Timing.now_ns}) to now — or of
    length [dur] when given, bypassing the span stack and any extra
    clock read. Hot paths that already read the clock for a latency
    histogram reuse both readings here, paying no extra clock call. *)

val instant : t -> ?arg:int -> kind -> unit

val recorded : t -> int
(** Events currently held across all rings. *)

val dropped : t -> int
(** Total events lost so far: ring-wrap overwrites plus open spans
    discarded by an unbalanced {!span_end}. Exported to dumps as
    [otherData.dropped_events_total] and, per queue, as the
    [trace_dropped_events_total] gauge. *)

val to_json : t -> Json.t
val to_chrome_json : t -> string

val save : path:string -> t -> string
(** Writes the Chrome JSON to [path] (creating the parent directory if
    needed); returns [path]. *)
