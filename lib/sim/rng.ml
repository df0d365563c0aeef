(* The splitmix64 state lives unboxed in an 8-byte buffer.  A mutable
   [int64] record field holds a pointer to a boxed Int64, so every draw
   would allocate a fresh box to store the advanced state; reading and
   writing the buffer with [Bytes.get/set_int64_ne] keeps the whole chain
   in registers.  The samplers below are written as loops over that state
   with no local closures, so a draw allocates at most the boxed float or
   Int64 it returns. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64: state advances by a fixed gamma; output is a bijective mix of
   the state, so distinct states never collide within a stream. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let bits64 t = next t

let split t = of_state (mix64 (next t))

let int_mask = Int64.of_int max_int

let rec int_draw t bound =
  let r = Int64.to_int (Int64.logand (next t) int_mask) in
  let v = r mod bound in
  (* Reject the tail to keep the distribution exactly uniform. *)
  if r - v + (bound - 1) < 0 then int_draw t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  int_draw t bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

(* 53 random bits give a uniform double in [0, 1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

let float t bound = unit_float t *. bound

let float_into t bound cell = cell.(0) <- unit_float t *. bound

(* [float t 1. < p] without the box: a uniform times 1. is itself. *)
let[@inline] chance t p = unit_float t < p

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

(* A uniform draw in (0, 1): zero is redrawn so its logarithm is finite. *)
let[@inline] nonzero_unit t =
  let u = ref (unit_float t) in
  while !u <= 0. do
    u := unit_float t
  done;
  !u

(* Box–Muller: two uniforms per Gaussian, the first one nonzero. *)
let[@inline] gaussian t ~mu ~sigma =
  let u1 = nonzero_unit t in
  let u2 = unit_float t in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let normal t ~mu ~sigma = gaussian t ~mu ~sigma

(* Up to 65 attempts (k = 0 .. 64), then clamp to [lo]. *)
let[@inline] truncated_draw t ~mu ~sigma ~lo =
  let result = ref lo and k = ref 0 and searching = ref true in
  while !searching do
    let x = gaussian t ~mu ~sigma in
    if x >= lo then begin
      result := x;
      searching := false
    end
    else if !k >= 64 then searching := false
    else incr k
  done;
  !result

let truncated_normal t ~mu ~sigma ~lo = truncated_draw t ~mu ~sigma ~lo

let truncated_normal_into t ~mu ~sigma ~lo cell =
  cell.(0) <- truncated_draw t ~mu ~sigma ~lo

let[@inline] exponential_draw t mean = -.mean *. log (nonzero_unit t)

let exponential t ~mean = exponential_draw t mean

let exponential_into t cell = cell.(0) <- exponential_draw t cell.(0)

(* Knuth's method: multiply uniforms until the product drops to e^-mean.
   Exact while e^-mean is a normal double, which [poisson_chunk] keeps. *)
let[@inline] knuth_poisson t mean =
  let limit = exp (-.mean) in
  let k = ref 0 and p = ref (unit_float t) in
  while !p > limit do
    incr k;
    p := !p *. unit_float t
  done;
  !k

(* Past this mean e^-mean approaches the subnormal range (it underflows to
   0 at about 745), and Knuth's loop would run until the product itself
   underflows.  A sum of independent Poisson draws is Poisson with the
   summed mean, so larger means are drawn in chunks of at most this size. *)
let poisson_chunk = 500.

let poisson t ~mean =
  if mean < 0. then invalid_arg "Rng.poisson: negative mean";
  if not (Float.is_finite mean) then invalid_arg "Rng.poisson: mean is not finite";
  let total = ref 0 and rest = ref mean in
  while !rest > poisson_chunk do
    total := !total + knuth_poisson t poisson_chunk;
    rest := !rest -. poisson_chunk
  done;
  !total + knuth_poisson t !rest

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))
