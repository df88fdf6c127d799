module Rng = Zmsq_util.Rng

type policy = { base_ns : int; cap_ns : int; max_attempts : int; budget_ns : int }

let default_policy =
  { base_ns = 1_000_000; cap_ns = 100_000_000; max_attempts = 8; budget_ns = 500_000_000 }

type t = {
  policy : policy;
  rng : Rng.t;
  mutable attempts : int;
  mutable slept_ns : int;
  mutable prev_ns : int;  (** last delay; the decorrelated-jitter state *)
  mutable retries : int;  (** [Retry_after] decisions since [create] *)
  mutable waited_ns : int;  (** time measured inside [pause] since [create] *)
}

let create ?(seed = 1) policy =
  if policy.base_ns < 0 || policy.cap_ns < policy.base_ns then
    invalid_arg "Retry.create: need 0 <= base_ns <= cap_ns";
  {
    policy;
    rng = Rng.create ~seed ();
    attempts = 0;
    slept_ns = 0;
    prev_ns = policy.base_ns;
    retries = 0;
    waited_ns = 0;
  }

type decision = Retry_after of int | Gave_up of string

let on_failure t ~reason =
  t.attempts <- t.attempts + 1;
  if t.attempts > t.policy.max_attempts then
    Gave_up (Printf.sprintf "%s: %d attempts exhausted" reason t.policy.max_attempts)
  else begin
    (* sleep = min(cap, uniform(base, prev * 3)) — AWS's "decorrelated
       jitter", which spreads synchronized shed cohorts apart instead of
       letting full-jitter's occasional near-zero draws hammer straight
       back into the overload. *)
    let hi = min t.policy.cap_ns (t.prev_ns * 3) in
    let span = hi - t.policy.base_ns + 1 in
    let d = t.policy.base_ns + Rng.int t.rng span in
    if t.slept_ns + d > t.policy.budget_ns then
      Gave_up
        (Printf.sprintf "%s: retry budget exhausted (%d ns slept, %d attempts)" reason
           t.slept_ns t.attempts)
    else begin
      t.slept_ns <- t.slept_ns + d;
      t.prev_ns <- d;
      t.retries <- t.retries + 1;
      Retry_after d
    end
  end

let on_success t =
  t.attempts <- 0;
  t.slept_ns <- 0;
  t.prev_ns <- t.policy.base_ns

let attempts t = t.attempts

let pause t d =
  let t0 = Zmsq_util.Timing.now_ns () in
  Unix.sleepf (float_of_int d *. 1e-9);
  t.waited_ns <- t.waited_ns + (Zmsq_util.Timing.now_ns () - t0)

let retries t = t.retries
let waited_ns t = t.waited_ns

let schedule ?seed policy k =
  let t = create ?seed policy in
  let rec go i acc =
    if i >= k then List.rev acc
    else
      match on_failure t ~reason:"schedule" with
      | Retry_after d -> go (i + 1) (d :: acc)
      | Gave_up _ -> List.rev acc
  in
  go 0 []
