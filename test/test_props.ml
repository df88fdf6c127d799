(* Property-based differential and relaxation-bound suite.

   A standalone executable (not part of the alcotest aggregate) so CI can
   drive it directly: ZMSQ_PROP_SEED fixes the random seed, ZMSQ_PROP_ITERS
   scales the iteration count, and every failure prints the exact
   environment that replays it.

   Part 1 — differential testing. Random operation sequences are replayed
   against the sequential Binary_heap oracle: with [batch = 0] ZMSQ is a
   strict priority queue, so every extraction must agree with the oracle
   exactly. The whole forced_insert × min_swap × split ablation matrix
   is covered, each with buffering off and on
   ([buffer_len > 0] stays exact for a single handle: the local claim rule
   only fires when the staged head beats everything published, and a
   drained extract flushes the backlog — see DESIGN.md). QCheck shrinks
   any failure to a minimal operation sequence.

   Part 2 — relaxation bound. For every (batch, buffer_len) configuration,
   the true maximum must be returned at least once in any window of
   [batch + nhandles * buffer_len + 1] extractions. Measured with the
   rank-error oracle of [Zmsq_harness.Accuracy]: the longest run of
   non-zero rank errors must not exceed [batch + nhandles * buffer_len].
   The multi-handle variant drives three handles round-robin from one
   domain — deterministic, yet it exercises the cross-handle staging the
   bound accounts for (producers keep inserting during the extraction
   phase, so buffered maxima are published within [buffer_len] of their
   owner's inserts). *)

module Elt = Zmsq_pq.Elt
module P = Zmsq.Params
module Rng = Zmsq_util.Rng
module Heap = Zmsq_pq.Binary_heap
module Accuracy = Zmsq_harness.Accuracy
module Oracle = Accuracy.Oracle

let seed = Zmsq_util.Env.int "ZMSQ_PROP_SEED" ~default:0xC0FFEE
let iters = Zmsq_util.Env.int "ZMSQ_PROP_ITERS" ~default:40

(* {2 Part 1: differential vs the sequential oracle} *)

let ablation_params ~forced_insert ~min_swap ~split ~buffer_len =
  P.validate
    {
      P.strict with
      P.target_len = 4 (* tiny sets force splits even on short sequences *);
      forced_insert;
      min_swap;
      split;
      buffer_len;
    }

let pp_elt e =
  if Elt.is_none e then "none" else Printf.sprintf "%d" (Elt.priority e)

let differential_ok params ops =
  let module Q = Zmsq.Default in
  let q = Q.create ~params () in
  let h = Q.register q in
  let oracle = Heap.create () in
  let mismatch = ref None in
  List.iteri
    (fun i op ->
      if !mismatch = None then
        match op with
        | Some k ->
            let e = Elt.of_priority k in
            Q.insert h e;
            Heap.insert oracle e
        | None ->
            let got = Q.extract h and want = Heap.extract_max oracle in
            if got <> want then mismatch := Some (i, got, want))
    ops;
  (* Exercise the explicit flush, then drain both sides to the end: a
     strict queue must agree element for element until both are empty. *)
  Q.flush h;
  let rec drain i =
    if !mismatch = None then begin
      let got = Q.extract h and want = Heap.extract_max oracle in
      if got <> want then mismatch := Some (i, got, want)
      else if not (Elt.is_none got) then drain (i + 1)
    end
  in
  drain (List.length ops);
  let inv = Q.Debug.check_invariant q in
  Q.unregister h;
  match !mismatch with
  | Some (i, got, want) ->
      QCheck.Test.fail_reportf "step %d: queue returned %s, oracle wants %s [%s]" i
        (pp_elt got) (pp_elt want)
        (Format.asprintf "%a" P.pp params)
  | None ->
      inv
      || QCheck.Test.fail_reportf "invariant broken after drain [%s]"
           (Format.asprintf "%a" P.pp params)

(* Ops: [Some k] inserts priority k, [None] extracts. Small priority range
   so duplicate keys (a classic strict-order bug source) are common. *)
let ops_arb = QCheck.(list (option (int_bound 1000)))

let differential_tests =
  let bools = [ false; true ] in
  List.concat_map
    (fun buffer_len ->
      List.concat_map
        (fun forced_insert ->
          List.concat_map
            (fun min_swap ->
              List.map
                (fun split ->
                  let params = ablation_params ~forced_insert ~min_swap ~split ~buffer_len in
                  let name =
                    Printf.sprintf "differential b=0 buf=%d forced=%b minswap=%b split=%b"
                      buffer_len forced_insert min_swap split
                  in
                  QCheck.Test.make ~name ~count:iters ops_arb (differential_ok params))
                bools)
            bools)
        bools)
    [ 0; 3 ]

(* {2 Part 2: the extended relaxation bound} *)

(* Interleave one fresh insert with every extraction so the buffering and
   claim paths stay active, recording each extraction's rank error. *)
let relaxation_single ~batch ~buffer_len =
  let params = P.(default |> with_batch batch |> with_buffer_len buffer_len) in
  let module Q = Zmsq.Default in
  let q = Q.create ~params () in
  let h = Q.register q in
  let rng = Rng.create ~seed:(seed + (batch * 131) + buffer_len) () in
  let oracle = Oracle.create () in
  let ranks = ref [] in
  let insert_fresh () =
    let e = Elt.of_priority (Rng.int rng 1_000_000) in
    Q.insert h e;
    Oracle.add oracle e
  in
  let observe e = ranks := Oracle.observe oracle e :: !ranks in
  for _ = 1 to 2_000 do
    insert_fresh ()
  done;
  for _ = 1 to 4_000 do
    insert_fresh ();
    let e = Q.extract h in
    if not (Elt.is_none e) then observe e
  done;
  Q.flush h;
  let rec drain () =
    let e = Q.extract h in
    if not (Elt.is_none e) then begin
      observe e;
      drain ()
    end
  in
  drain ();
  Q.unregister h;
  let gap = Accuracy.max_zero_gap (List.rev !ranks) in
  let bound = batch + buffer_len in
  if gap <= bound then Ok gap
  else
    Error
      (Printf.sprintf "single handle: zero-rank gap %d exceeds bound %d (batch=%d buf=%d)"
         gap bound batch buffer_len)

(* Three handles round-robin in one domain: handle 0 extracts, handles 1-2
   produce throughout the measured phase (the bound presumes producers
   keep operating — a buffered max is only published within [buffer_len]
   of its owner's subsequent inserts, its next drained extract, or
   unregister). *)
let relaxation_multi ~batch ~buffer_len =
  let params = P.(default |> with_batch batch |> with_buffer_len buffer_len) in
  let nhandles = 3 in
  let module Q = Zmsq.Default in
  let q = Q.create ~params () in
  let consumer = Q.register q in
  let producers = Array.init (nhandles - 1) (fun _ -> Q.register q) in
  let rng = Rng.create ~seed:(seed + (batch * 977) + (buffer_len * 13)) () in
  let oracle = Oracle.create () in
  let ranks = ref [] in
  let insert_via h =
    let e = Elt.of_priority (Rng.int rng 1_000_000) in
    Q.insert h e;
    Oracle.add oracle e
  in
  let observe e = ranks := Oracle.observe oracle e :: !ranks in
  for _ = 1 to 2_000 do
    insert_via producers.(0)
  done;
  for _ = 1 to 4_000 do
    Array.iter insert_via producers;
    let e = Q.extract consumer in
    if not (Elt.is_none e) then observe e
  done;
  (* Unregister flushes any remaining backlog; then drain. *)
  Array.iter Q.unregister producers;
  let rec drain () =
    let e = Q.extract consumer in
    if not (Elt.is_none e) then begin
      observe e;
      drain ()
    end
  in
  drain ();
  Q.unregister consumer;
  let gap = Accuracy.max_zero_gap (List.rev !ranks) in
  let bound = batch + (nhandles * buffer_len) in
  if gap <= bound then Ok gap
  else
    Error
      (Printf.sprintf
         "%d handles: zero-rank gap %d exceeds bound %d (batch=%d buf=%d)" nhandles gap
         bound batch buffer_len)

let relaxation_cases =
  List.concat_map
    (fun batch -> List.map (fun buffer_len -> (batch, buffer_len)) [ 0; 4; 8 ])
    [ 0; 4; 16; 48 ]

(* {2 Part 3: the sharded build (shards ∈ {1,2,4})}

   Two properties fence [Zmsq.Shard]:

   - shards=1 is {e bit-for-bit} the single queue: with the same params —
     including [seed], which pins the handle RNG — the same operation
     sequence must produce element-for-element identical extractions, even
     in relaxed configurations where both sides are free to reorder.
     QCheck shrinks any divergence to a minimal op sequence.

   - at shards > 1 the zero-rank gap obeys the {e sharded} bound
     [Accuracy.sharded_bound]: each shard contributes its own relaxation
     window, plus the two-choice selection slack for windows where the
     best shard dodges the sampler. *)

module SQ = Zmsq.Shard.Default

let sharded_identity_params ~buffer_len =
  P.validate
    {
      P.default with
      P.batch = 4;
      target_len = 4;
      buffer_len;
      shards = 1;
      seed = Some seed;
    }

let sharded_identity_ok params ops =
  let module Q = Zmsq.Default in
  let q = Q.create ~params () and sq = SQ.create ~params () in
  let h = Q.register q and sh = SQ.register sq in
  let mismatch = ref None in
  List.iteri
    (fun i op ->
      if !mismatch = None then
        match op with
        | Some k ->
            Q.insert h (Elt.of_priority k);
            SQ.insert sh (Elt.of_priority k)
        | None ->
            let a = Q.extract h and b = SQ.extract sh in
            if a <> b then mismatch := Some (i, a, b))
    ops;
  Q.flush h;
  SQ.flush sh;
  let rec drain i =
    if !mismatch = None then begin
      let a = Q.extract h and b = SQ.extract sh in
      if a <> b then mismatch := Some (i, a, b)
      else if not (Elt.is_none a) then drain (i + 1)
    end
  in
  drain (List.length ops);
  let inv = SQ.Debug.check_invariant sq in
  Q.unregister h;
  SQ.unregister sh;
  match !mismatch with
  | Some (i, a, b) ->
      QCheck.Test.fail_reportf
        "step %d: plain queue returned %s, shards=1 returned %s [%s]" i (pp_elt a)
        (pp_elt b)
        (Format.asprintf "%a" P.pp params)
  | None ->
      inv
      || QCheck.Test.fail_reportf "sharded invariant broken after drain [%s]"
           (Format.asprintf "%a" P.pp params)

let sharded_identity_tests =
  List.map
    (fun buffer_len ->
      QCheck.Test.make
        ~name:(Printf.sprintf "shards=1 bit-for-bit vs single queue (buf=%d)" buffer_len)
        ~count:iters ops_arb
        (sharded_identity_ok (sharded_identity_params ~buffer_len)))
    [ 0; 3 ]

(* Round-robin three handles in one domain, as in [relaxation_multi]; the
   consumer's two-choice extraction walks the shards while the producers
   keep every shard's staging active. *)
let relaxation_sharded ~shards ~batch ~buffer_len =
  let params =
    P.(
      default |> with_batch batch |> with_buffer_len buffer_len |> with_shards shards
      |> with_seed (seed + (shards * 7)))
  in
  let nhandles = 3 in
  let sq = SQ.create ~params () in
  let consumer = SQ.register sq in
  let producers = Array.init (nhandles - 1) (fun _ -> SQ.register sq) in
  let rng = Rng.create ~seed:(seed + (shards * 389) + (batch * 977) + (buffer_len * 13)) () in
  let oracle = Oracle.create () in
  let ranks = ref [] in
  let insert_via h =
    let e = Elt.of_priority (Rng.int rng 1_000_000) in
    SQ.insert h e;
    Oracle.add oracle e
  in
  let observe e = ranks := Oracle.observe oracle e :: !ranks in
  for _ = 1 to 2_000 do
    insert_via producers.(0)
  done;
  for _ = 1 to 4_000 do
    Array.iter insert_via producers;
    let e = SQ.extract consumer in
    if not (Elt.is_none e) then observe e
  done;
  Array.iter SQ.unregister producers;
  let rec drain () =
    let e = SQ.extract consumer in
    if not (Elt.is_none e) then begin
      observe e;
      drain ()
    end
  in
  drain ();
  SQ.unregister consumer;
  let gap = Accuracy.max_zero_gap (List.rev !ranks) in
  let bound = Accuracy.sharded_bound ~shards ~batch ~ndomains:nhandles ~buffer_len in
  if gap <= bound then Ok gap
  else
    Error
      (Printf.sprintf
         "shards=%d: zero-rank gap %d exceeds sharded bound %d (batch=%d buf=%d)" shards
         gap bound batch buffer_len)

let sharded_relaxation_cases =
  List.concat_map
    (fun shards ->
      List.map (fun (batch, buffer_len) -> (shards, batch, buffer_len))
        [ (0, 0); (4, 4); (16, 8); (48, 8) ])
    [ 1; 2; 4 ]

(* {2 Runner} *)

let () =
  Printf.printf "zmsq property suite: seed=%d iters=%d\n%!" seed iters;
  Printf.printf "  (replay: ZMSQ_PROP_SEED=%d ZMSQ_PROP_ITERS=%d dune exec test/test_props.exe)\n%!"
    seed iters;
  let failures = ref 0 in
  let rand = Random.State.make [| seed |] in
  List.iter
    (fun t ->
      let name = match t with QCheck2.Test.Test cell -> QCheck2.Test.get_name cell in
      try
        QCheck.Test.check_exn ~rand t;
        Printf.printf "  ok   %s\n%!" name
      with e ->
        incr failures;
        Printf.printf "  FAIL %s\n%s\n%!" name (Printexc.to_string e))
    differential_tests;
  List.iter
    (fun (batch, buffer_len) ->
      List.iter
        (fun (label, run) ->
          match run ~batch ~buffer_len with
          | Ok gap ->
              Printf.printf "  ok   relaxation %s batch=%d buf=%d (max gap %d)\n%!" label
                batch buffer_len gap
          | Error msg ->
              incr failures;
              Printf.printf "  FAIL relaxation: %s\n%!" msg)
        [ ("single", relaxation_single); ("multi", relaxation_multi) ])
    relaxation_cases;
  List.iter
    (fun t ->
      let name = match t with QCheck2.Test.Test cell -> QCheck2.Test.get_name cell in
      try
        QCheck.Test.check_exn ~rand t;
        Printf.printf "  ok   %s\n%!" name
      with e ->
        incr failures;
        Printf.printf "  FAIL %s\n%s\n%!" name (Printexc.to_string e))
    sharded_identity_tests;
  List.iter
    (fun (shards, batch, buffer_len) ->
      match relaxation_sharded ~shards ~batch ~buffer_len with
      | Ok gap ->
          Printf.printf "  ok   relaxation sharded shards=%d batch=%d buf=%d (max gap %d)\n%!"
            shards batch buffer_len gap
      | Error msg ->
          incr failures;
          Printf.printf "  FAIL relaxation: %s\n%!" msg)
    sharded_relaxation_cases;
  if !failures > 0 then begin
    Printf.eprintf
      "%d property failure(s); replay with ZMSQ_PROP_SEED=%d ZMSQ_PROP_ITERS=%d\n%!"
      !failures seed iters;
    exit 1
  end
