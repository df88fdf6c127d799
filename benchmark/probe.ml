(* The traced run's instrumentation, kept entirely on the benchmark side:
   it times calls the benchmark makes into a layer's public functions and
   never reaches inside the library.

   One [recorder] belongs to one domain at a time. It keeps call
   latencies in preallocated sample arrays (one call in [stride] is
   stored, every call is added to [busy_ns]) and one call in 64 as a
   span: name, start, end, parent and an id shared by the spans of one
   request. Nothing on the recording path allocates. *)

module Timing = Zmsq_util.Timing
module Json = Zmsq_obs.Json

let names =
  [|
    "insert";
    "extract";
    "extract_blocking";
    "segment";
    "solve";
    "rpc";
    "encode";
    "decode";
  |]

let n_insert = 0
let n_extract = 1
let n_extract_blocking = 2
let n_segment = 3
let n_solve = 4
let n_rpc = 5
let n_encode = 6
let n_decode = 7
let span_every = 64
let span_capacity = 1 lsl 14

type recorder = {
  tid : int;
  stride : int;
  ins : Samples.t;
  ext : Samples.t;
  mutable calls : int;
  mutable busy_ns : int;
  sp_name : int array;
  sp_start : int array;
  sp_stop : int array;
  sp_id : int array;
  sp_parent : int array;
  mutable sp_n : int;
}

let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

(* The span every sampled queue call hangs under (a segment, a solve). *)
let parent = Atomic.make 0

(* [capacity] samples per call kind, and as many spans up to
   [span_capacity]: an untraced run passes a tiny capacity. *)
let recorder ?(stride = 4) ~capacity tid =
  let spans = min capacity span_capacity in
  {
    tid;
    stride;
    ins = Samples.create capacity;
    ext = Samples.create capacity;
    calls = 0;
    busy_ns = 0;
    sp_name = Array.make spans 0;
    sp_start = Array.make spans 0;
    sp_stop = Array.make spans 0;
    sp_id = Array.make spans 0;
    sp_parent = Array.make spans 0;
    sp_n = 0;
  }

let span r ~name ~start ~stop ~id ~parent =
  let i = r.sp_n in
  if i < Array.length r.sp_name then begin
    r.sp_name.(i) <- name;
    r.sp_start.(i) <- start;
    r.sp_stop.(i) <- stop;
    r.sp_id.(i) <- id;
    r.sp_parent.(i) <- parent;
    r.sp_n <- i + 1
  end

(* Account one timed call. The write side (insert, encode) goes to [ins],
   the read side (extract, decode) to [ext]. Returns whether this call is
   one of the 1 in [span_every] that the caller should also keep as a
   span. *)
let record r ~name ~start ~stop =
  let d = stop - start in
  r.busy_ns <- r.busy_ns + d;
  let c = r.calls in
  r.calls <- c + 1;
  if c mod r.stride = 0 then
    Samples.add (if name = n_insert || name = n_encode then r.ins else r.ext) d;
  c land (span_every - 1) = 0

let call r ~name ~start ~stop =
  if record r ~name ~start ~stop then
    span r ~name ~start ~stop ~id:(fresh_id ()) ~parent:(Atomic.get parent)

(* A fixed set of recorders handed out to handles as they register, so a
   solver that registers fresh handles per run reuses the same arrays. *)
type pool = { free : recorder list ref; all : recorder list; mu : Mutex.t }

let pool ?stride ~capacity n =
  let all = List.init n (fun i -> recorder ?stride ~capacity (i + 1)) in
  { free = ref all; all; mu = Mutex.create () }

let take p =
  Mutex.protect p.mu (fun () ->
      match !(p.free) with
      | r :: rest ->
          p.free := rest;
          r
      | [] -> invalid_arg "Probe.take: recorder pool exhausted")

let give p r = Mutex.protect p.mu (fun () -> p.free := r :: !(p.free))

(* [Timed (Q)] is [Q] with every insert and extract timed by the handle's
   recorder. It is a complete [Intf.CONC], so [Sssp_parallel.run] drives
   it unchanged. *)
module Timed (Q : Zmsq.S) = struct
  type t = { q : Q.t; pool : pool }
  type handle = { h : Q.handle; r : recorder; p : pool option }

  let name = Q.name ^ "+timed"
  let exact_emptiness = Q.exact_emptiness
  let length t = Q.length t.q

  (* A timed view of a handle the caller registered and will unregister. *)
  let wrap r h = { h; r; p = None }
  let register t = { h = Q.register t.q; r = take t.pool; p = Some t.pool }

  let unregister th =
    Q.unregister th.h;
    Option.iter (fun p -> give p th.r) th.p

  let insert th e =
    let start = Timing.now_ns () in
    Q.insert th.h e;
    call th.r ~name:n_insert ~start ~stop:(Timing.now_ns ())

  let extract th =
    let start = Timing.now_ns () in
    let e = Q.extract th.h in
    call th.r ~name:n_extract ~start ~stop:(Timing.now_ns ());
    e

  let extract_blocking th =
    let start = Timing.now_ns () in
    let e = Q.extract_blocking th.h in
    call th.r ~name:n_extract_blocking ~start ~stop:(Timing.now_ns ());
    e
end

let instance (type a) (module Q : Zmsq.S with type t = a) (q : a) p : Zmsq_pq.Intf.instance =
  let module T = Timed (Q) in
  Zmsq_pq.Intf.pack (module T) { T.q; pool = p }

(* {2 Chrome trace} *)

let chrome_json recorders =
  let events =
    List.concat_map
      (fun r ->
        List.init r.sp_n (fun i ->
            Json.Obj
              [
                ("name", Json.Str names.(r.sp_name.(i)));
                ("ph", Json.Str "X");
                ("pid", Json.Int 1);
                ("tid", Json.Int r.tid);
                ("ts", Json.Float (float_of_int r.sp_start.(i) /. 1e3));
                ("dur", Json.Float (float_of_int (r.sp_stop.(i) - r.sp_start.(i)) /. 1e3));
                ( "args",
                  Json.Obj [ ("id", Json.Int r.sp_id.(i)); ("parent", Json.Int r.sp_parent.(i)) ]
                );
              ]))
      recorders
  in
  Json.to_string (Json.Obj [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ns") ])
