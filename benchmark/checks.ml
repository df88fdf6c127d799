(* Output checks, one per workload. Each takes what the run produced and
   returns [Ok ()] or [Error reason]; a failed check fails the run. They
   are pure so the tests can feed them corrupted results. *)

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* steady_mixed: every element that went in either came out or is still
   there, by count and by priority sum, and the tree is well formed. *)
type steady = {
  in_count : int;  (** preloaded + inserted *)
  in_sum : int;
  out_count : int;  (** extracted, including the top-k drain *)
  out_sum : int;
  left_count : int;  (** [Debug.elements] at quiescence *)
  left_sum : int;
  invariant : bool;  (** [Debug.check_invariant] at quiescence *)
}

let steady r =
  if not r.invariant then fail "Debug.check_invariant failed at quiescence"
  else if r.in_count <> r.out_count + r.left_count then
    fail "conservation: %d in <> %d out + %d left" r.in_count r.out_count r.left_count
  else if r.in_sum <> r.out_sum + r.left_sum then
    fail "conservation: priority sums differ (%d in, %d out, %d left)" r.in_sum r.out_sum
      r.left_sum
  else Ok ()

(* handoff: [seen.(i)] counts deliveries of sequence number [i]; each must
   be delivered exactly once. *)
let exactly_once seen =
  let bad = ref (-1) in
  Array.iteri (fun i c -> if c <> 1 && !bad < 0 then bad := i) seen;
  if !bad >= 0 then fail "sequence %d delivered %d times" !bad seen.(!bad) else Ok ()

(* sssp: the solver's distances equal the sequential Dijkstra oracle. *)
let distances ~oracle got =
  if Array.length oracle <> Array.length got then
    fail "distance array has %d entries, oracle %d" (Array.length got) (Array.length oracle)
  else begin
    let bad = ref (-1) in
    Array.iteri (fun v d -> if d <> got.(v) && !bad < 0 then bad := v) oracle;
    if !bad >= 0 then fail "vertex %d: distance %d, oracle %d" !bad got.(!bad) oracle.(!bad)
    else Ok ()
  end

(* rpc_ramp: preload + acknowledged inserts = elements the clients
   extracted + elements the server recovered at shutdown; no element id
   came back twice; the server exited 0. *)
type rpc = {
  preload : int;
  acked : int;
  extracted : int;
  duplicates : int;
  drained : int option;  (** from the server's "drained (N elements ...)" line *)
  exit_code : int;
}

let rpc r =
  match r.drained with
  | None -> fail "server printed no drained line"
  | Some drained ->
      if r.exit_code <> 0 then fail "server exited %d" r.exit_code
      else if r.duplicates > 0 then fail "%d element ids extracted twice" r.duplicates
      else if r.preload + r.acked <> r.extracted + drained then
        fail "conservation: preload %d + acked %d <> extracted %d + drained %d" r.preload
          r.acked r.extracted drained
      else Ok ()
