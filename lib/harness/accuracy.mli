(** Accuracy measurement — the paper's Table 1.

    The queue is initialized with [qsize] distinct random keys; [extracts]
    extraction operations then run on [threads] threads. The score is the
    percentage of returned keys that belong to the true top-[extracts] of
    the initial contents (100% = a strict priority queue). *)

type spec = { qsize : int; extracts : int; threads : int; seed : int }

(** Sequential mirror of the live queue contents, yielding each
    extraction's {e rank error} — how many live elements were strictly
    greater than the one returned (0 = the true maximum). The machinery
    behind the relaxation-bound property tests: ZMSQ guarantees the gap
    between rank-0 extractions never exceeds
    [batch + ndomains * buffer_len]. Single-owner; serialize access when
    observing from several threads. *)
module Oracle : sig
  type t

  val create : unit -> t

  val add : t -> Zmsq_pq.Elt.t -> unit
  (** Record an inserted element as live (multiset semantics). *)

  val observe : t -> Zmsq_pq.Elt.t -> int
  (** Rank error of an extraction; removes the element from the live set.
      Raises [Invalid_argument] if it was never added. *)

  val rank : t -> Zmsq_pq.Elt.t -> int
  (** Rank error without removing. *)

  val live : t -> int
end

val max_zero_gap : int list -> int
(** Longest run of consecutive non-zero rank errors in an observation
    sequence: [max_zero_gap ranks <= k] iff every window of [k + 1]
    consecutive extractions contained the then-true maximum. *)

val sharded_bound : shards:int -> batch:int -> ndomains:int -> buffer_len:int -> int
(** Rank-error bound for [Zmsq.Shard]:
    [shards * (batch + ndomains * buffer_len)] (each
    shard's single-queue window, stacked) plus a two-choice selection
    slack of [4 * shards * (shards - 1)] covering probabilistic
    shard-selection misses and cached-maximum staleness (zero when
    [shards = 1], where the expression collapses to the single-queue
    bound). The property suite
    checks observed rank errors against it at shards ∈ {1, 2, 4}. *)

val run : Instances.factory -> spec -> float
(** Percentage in [0, 100]. Retries around relaxed queues' spurious empty
    answers so exactly [extracts] elements are obtained. *)

val run_avg : ?repeats:int -> Instances.factory -> spec -> float

val fifo_baseline : spec -> float
(** The accuracy floor discussed in Section 4.3: a FIFO returns the oldest
    key regardless of priority; with uniformly shuffled insertions its
    expected score is [extracts/qsize * 100]. Measured, not computed. *)
