type lock_policy = Trylock | Blocking

type t = {
  batch : int;
  target_len : int;
  lock_policy : lock_policy;
  blocking : bool;
  hazards : bool;
  forced_insert : bool;
  min_swap : bool;
  split : bool;
  initial_levels : int;
  forced_min_level : int;
  buffer_len : int;
  shards : int;
  stickiness : int;
  seed : int option;
  obs : Zmsq_obs.Level.t;
  obs_sample_shift : int;
}

let default =
  {
    batch = 48;
    target_len = 72;
    lock_policy = Trylock;
    blocking = false;
    hazards = false;
    forced_insert = true;
    min_swap = true;
    split = true;
    initial_levels = 5;
    forced_min_level = 3;
    buffer_len = 0;
    shards = 1;
    stickiness = 8;
    seed = None;
    obs = Zmsq_obs.Level.from_env ();
    obs_sample_shift = Zmsq_util.Env.int "ZMSQ_OBS_SAMPLE" ~default:8;
  }

let validate p =
  if p.batch < 0 then invalid_arg "Params: batch must be >= 0";
  if p.target_len < 1 then invalid_arg "Params: target_len must be >= 1";
  if p.initial_levels < 1 || p.initial_levels > 28 then
    invalid_arg "Params: initial_levels out of range";
  if p.forced_min_level < 0 then invalid_arg "Params: forced_min_level must be >= 0";
  if p.buffer_len < 0 then invalid_arg "Params: buffer_len must be >= 0";
  if p.buffer_len > p.target_len then
    invalid_arg "Params: buffer_len must be <= target_len";
  if p.shards < 1 then invalid_arg "Params: shards must be >= 1";
  if p.stickiness < 1 then invalid_arg "Params: stickiness must be >= 1";
  if p.obs_sample_shift < 0 || p.obs_sample_shift > 30 then
    invalid_arg "Params: obs_sample_shift out of range [0, 30]";
  p

let strict = { default with batch = 0 }

let static n = validate { default with batch = n; target_len = n }

let dynamic ~ratio_num ~ratio_den ~threads =
  if ratio_num <= 0 || ratio_den <= 0 || threads <= 0 then invalid_arg "Params.dynamic";
  let batch, target_len =
    if ratio_num <= ratio_den then (threads, threads * ratio_den / ratio_num)
    else (threads * ratio_num / ratio_den, threads)
  in
  validate { default with batch; target_len }

let with_batch batch p = validate { p with batch }
let with_target_len target_len p = validate { p with target_len }
let with_buffer_len buffer_len p = validate { p with buffer_len }
let with_shards shards p = validate { p with shards }
let with_stickiness stickiness p = validate { p with stickiness }
let with_seed seed p = { p with seed = Some seed }
let with_obs obs p = { p with obs }
let with_obs_sample obs_sample_shift p = validate { p with obs_sample_shift }

let pp fmt p =
  Format.fprintf fmt "batch=%d target_len=%d lock=%s%s%s%s%s obs=%s" p.batch p.target_len
    (match p.lock_policy with Trylock -> "try" | Blocking -> "block")
    (if p.blocking then " +blocking" else "")
    (if p.hazards then " +hazards" else "")
    (if p.buffer_len > 0 then Printf.sprintf " buf=%d" p.buffer_len else "")
    (if p.shards > 1 then Printf.sprintf " shards=%d sticky=%d" p.shards p.stickiness
     else "")
    (Zmsq_obs.Level.to_string p.obs)
