(** Capped exponential backoff with decorrelated jitter and retry
    budgets, for clients answering the server's shedding ladder.

    The schedule follows the decorrelated-jitter recipe: each delay is
    drawn uniformly from [[base, prev * 3]] then capped, so concurrent
    clients that were shed by the same overload spike de-synchronize
    instead of reconverging on the server in lockstep (the retry-storm
    shape). Budgets bound the total: a request gives up — a typed
    {!decision}, never a silent infinite loop — after [max_attempts]
    failures or once cumulative backoff sleep would exceed [budget_ns].

    Deterministic under a fixed seed: the whole schedule is a pure
    function of (seed, policy, failure sequence), which the wire-framing
    test tier pins down. *)

type policy = {
  base_ns : int;
      (** every delay's lower bound. [0] (with [cap_ns = 0]) retries at
          once: the retry-storm shape {!Loadgen.retry_storm} rejects. *)
  cap_ns : int;  (** per-delay upper bound *)
  max_attempts : int;  (** failures tolerated before giving up *)
  budget_ns : int;  (** cumulative sleep allowed across retries *)
}

val default_policy : policy
(** base 1 ms, cap 100 ms, 8 attempts, 500 ms total budget. *)

type t

val create : ?seed:int -> policy -> t

type decision =
  | Retry_after of int  (** sleep this many ns, then retry *)
  | Gave_up of string  (** budget or attempts exhausted — typed failure *)

val on_failure : t -> reason:string -> decision
(** Record one failure and decide. [reason] is carried into the
    {!Gave_up} message for diagnosis. *)

val on_success : t -> unit
(** Reset the attempt counter, cumulative budget and jitter state — the
    next failure starts a fresh schedule. *)

val attempts : t -> int
(** Failures recorded since the last reset. *)

val pause : t -> int -> unit
(** [pause t d] sleeps [d] ns (a {!Retry_after} delay) and adds the time
    it measured to {!waited_ns}. *)

val retries : t -> int
(** {!Retry_after} decisions since [create]; {!on_success} keeps it. *)

val waited_ns : t -> int
(** Wall time measured inside {!pause} since [create]. *)

val schedule : ?seed:int -> policy -> int -> int list
(** [schedule policy k] is the delay sequence a fresh [t] would produce
    for [k] consecutive failures (shorter if it gives up first) —
    the deterministic view the tests assert on. *)
