(* xoshiro256** 1.0 (Blackman & Vigna), seeded through splitmix64. *)

(* The four state words live unboxed in a 32-byte buffer: mutable [int64]
   record fields would box every updated word (21 minor words a draw),
   while with the bytes primitives a draw allocates nothing once [next]
   is inlined into its caller. Native endianness is fine: the buffer
   never leaves this module. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64 state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let default_seed = 0x5DEECE66D

let of_splitmix st =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix64 st)
  done;
  t

let create ?(seed = default_seed) () = of_splitmix (ref (Int64.of_int seed))

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set64 t 8 (Int64.logxor s1 s2);
  set64 t 0 (Int64.logxor s0 s3);
  set64 t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let int64 t = next t

let split t = of_splitmix (ref (next t))

let split_n t n = Array.init n (fun _ -> split t)

let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Rejection sampling to avoid modulo bias. Top-level rather than a local
   closure, which would allocate on every call. *)
let rec int_below t bound =
  let r = bits t in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then int_below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_below t bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  r /. 9007199254740992.0 *. bound (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

let normal t ~mean ~stddev =
  (* Box–Muller; discards the second variate for simplicity. *)
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  let r = Float.sqrt (-2.0 *. Float.log u1) in
  mean +. (stddev *. r *. Float.cos (2.0 *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  -.Float.log (nonzero ()) /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n Fun.id in
  shuffle t a;
  a
