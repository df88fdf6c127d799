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
  | Buf_flush
  | Close
  | Reclaim
  | Drain
  | Shard_select
  | Accept
  | Rpc

let kind_name = function
  | Insert -> "insert"
  | Extract -> "extract"
  | Refill -> "refill"
  | Split -> "split"
  | Expand -> "expand"
  | Forced_insert -> "forced_insert"
  | Min_swap -> "min_swap"
  | Sleep -> "ec_sleep"
  | Wake -> "ec_wake"
  | Buf_flush -> "buf_flush"
  | Close -> "close"
  | Reclaim -> "reclaim"
  | Drain -> "drain"
  | Shard_select -> "shard_select"
  | Accept -> "accept"
  | Rpc -> "rpc"

let kind_code = function
  | Insert -> 0
  | Extract -> 1
  | Refill -> 2
  | Split -> 3
  | Expand -> 4
  | Forced_insert -> 5
  | Min_swap -> 6
  | Sleep -> 8
  | Wake -> 9
  | Buf_flush -> 10
  | Close -> 11
  | Reclaim -> 12
  | Drain -> 13
  | Shard_select -> 14
  (* 7 and 15 are retired: existing traces keep the codes of the other kinds. *)
  | Accept -> 16
  | Rpc -> 17

let kind_of_code = function
  | 0 -> Insert
  | 1 -> Extract
  | 2 -> Refill
  | 3 -> Split
  | 4 -> Expand
  | 5 -> Forced_insert
  | 6 -> Min_swap
  | 8 -> Sleep
  | 9 -> Wake
  | 10 -> Buf_flush
  | 11 -> Close
  | 12 -> Reclaim
  | 13 -> Drain
  | 14 -> Shard_select
  | 16 -> Accept
  | 17 -> Rpc
  | c -> invalid_arg (Printf.sprintf "Trace.kind_of_code: %d" c)

(* One ring per domain slot. A span is recorded on [span_end] as a
   complete event (begin timestamp + duration), which keeps the dump
   well-formed even after the ring wraps; open spans live on a tiny
   domain-private stack. [dur = -1] marks an instant event. *)
type ring = {
  ts : int array;
  dur : int array;
  code : int array;
  arg : int array;
  mutable pos : int;
  mutable n : int;
  mutable dropped : int;
  mutable stack : (int * int) list; (* (kind code, begin ns) *)
}

let nrings =
  let want = max 8 (Domain.recommended_domain_count ()) in
  let rec pow2 n = if n >= want then n else pow2 (n * 2) in
  min 128 (pow2 8)

let rmask = nrings - 1

(* lint: unpadded ring slots are write-once publishes; steady state is all reads *)
type t = { cap : int; rings : ring option Atomic.t array }

let create ?(capacity = 4096) () =
  if capacity < 16 then invalid_arg "Trace.create: capacity too small";
  { cap = capacity; rings = Array.init nrings (fun _ -> Atomic.make None) }

let my_ring t =
  let slot = t.rings.((Domain.self () :> int) land rmask) in
  match Atomic.get slot with
  | Some r -> r
  | None ->
      let r =
        {
          ts = Array.make t.cap 0;
          dur = Array.make t.cap 0;
          code = Array.make t.cap 0;
          arg = Array.make t.cap 0;
          pos = 0;
          n = 0;
          dropped = 0;
          stack = [];
        }
      in
      if Atomic.compare_and_set slot None (Some r) then r
      else Option.get (Atomic.get slot)

let record r ~ts ~dur ~code ~arg =
  r.ts.(r.pos) <- ts;
  r.dur.(r.pos) <- dur;
  r.code.(r.pos) <- code;
  r.arg.(r.pos) <- arg;
  r.pos <- (r.pos + 1) mod Array.length r.ts;
  if r.n = Array.length r.ts then r.dropped <- r.dropped + 1 else r.n <- r.n + 1

let span_begin t k =
  let r = my_ring t in
  r.stack <- (kind_code k, Zmsq_util.Timing.now_ns ()) :: r.stack

let span_end t k =
  let r = my_ring t in
  match r.stack with
  | (code, t0) :: rest when code = kind_code k ->
      r.stack <- rest;
      record r ~ts:t0 ~dur:(Zmsq_util.Timing.now_ns () - t0) ~code ~arg:0
  | _ ->
      (* Unbalanced: drop the open spans rather than lie, but account for
         them — these are lost events just like ring-wrap overwrites. *)
      r.dropped <- r.dropped + List.length r.stack;
      r.stack <- []

let complete t ?(arg = 0) ?dur ~t0 k =
  (* A span whose begin timestamp the caller measured itself (typically
     the same [t0] already taken for a latency histogram), recorded at
     the end of the critical section without touching the span stack.
     When the caller also measured the duration (it usually did, for the
     histogram), passing it avoids a third clock read. *)
  let r = my_ring t in
  let dur = match dur with Some d -> d | None -> Zmsq_util.Timing.now_ns () - t0 in
  record r ~ts:t0 ~dur:(max dur 0) ~code:(kind_code k) ~arg

let instant t ?(arg = 0) k =
  let r = my_ring t in
  record r ~ts:(Zmsq_util.Timing.now_ns ()) ~dur:(-1) ~code:(kind_code k) ~arg

let recorded t =
  Array.fold_left
    (fun acc slot -> match Atomic.get slot with None -> acc | Some r -> acc + r.n)
    0 t.rings

let dropped t =
  Array.fold_left
    (fun acc slot -> match Atomic.get slot with None -> acc | Some r -> acc + r.dropped)
    0 t.rings

(* {2 Chrome trace_event export}

   The dump is the JSON object format: {"traceEvents": [...]} with "X"
   (complete) events for spans and "i" (instant) events, timestamps in
   microseconds. Load via chrome://tracing or https://ui.perfetto.dev. *)

let events t =
  let acc = ref [] in
  Array.iteri
    (fun tid slot ->
      match Atomic.get slot with
      | None -> ()
      | Some r ->
          let len = Array.length r.ts in
          let emit i = acc := (tid, r.ts.(i), r.dur.(i), r.code.(i), r.arg.(i)) :: !acc in
          if r.n < len then
            for i = 0 to r.n - 1 do
              emit i
            done
          else begin
            for i = r.pos to len - 1 do
              emit i
            done;
            for i = 0 to r.pos - 1 do
              emit i
            done
          end)
    t.rings;
  List.sort (fun (_, a, _, _, _) (_, b, _, _, _) -> compare a b) !acc

let to_json t =
  let us ns = float_of_int ns /. 1e3 in
  let event (tid, ts, dur, code, arg) =
    let base =
      [
        ("name", Json.Str (kind_name (kind_of_code code)));
        ("cat", Json.Str "zmsq");
        ("ts", Json.Float (us ts));
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
      ]
    in
    if dur < 0 then
      Json.Obj
        (base
        @ [ ("ph", Json.Str "i"); ("s", Json.Str "t"); ("args", Json.Obj [ ("v", Json.Int arg) ]) ]
        )
    else
      Json.Obj
        (base
        @ [
            ("ph", Json.Str "X");
            ("dur", Json.Float (us dur));
            ("args", Json.Obj [ ("v", Json.Int arg) ]);
          ])
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map event (events t)));
      ("displayTimeUnit", Json.Str "ns");
      ("otherData", Json.Obj [ ("dropped_events_total", Json.Int (dropped t)) ]);
    ]

let to_chrome_json t = Json.to_string (to_json t)

let save ~path t = Export.write_file ~path (to_chrome_json t)
