type digest = string

(* Each 32-bit word lives in a native int, kept in [0, 2^32) by masking after
   every operation that can carry past bit 31.  Unlike [Int32], native ints
   are unboxed, so compression allocates nothing. *)
let mask = 0xffffffff

(* Round constants: cube roots of the first 64 primes (FIPS 180-4 §4.2.2). *)
let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
    0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
    0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
    0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
    0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

(* Initial hash: square roots of the first 8 primes. *)
let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* Per-domain scratch: the message schedule, the chaining state and room for
   the one or two padded final blocks.  It must not be a plain top-level
   buffer, because [Runner.run_many] hashes on several domains at once. *)
type scratch = { w : int array; h : int array; tail : Bytes.t }

let scratch =
  Domain.DLS.new_key (fun () -> { w = Array.make 64 0; h = Array.make 8 0; tail = Bytes.create 128 })

(* A rotation of [x] is a window of [x] written twice side by side: with
   [d = x lor (x lsl 32)], bits [n .. n+31] of [d] are [x] rotated right by
   [n].  Bit 31 of [x] falls off the 63-bit int, which only a rotation by 32
   would read.  Each sigma then costs one shift per term and one mask. *)
let[@inline] double x = x lor (x lsl 32)

(* [ch] and [maj] take their three- and four-operation forms, and
   [k.(t) + w.(t)] is summed apart from the state, so it does not wait on
   the previous round. *)
let compress w h block off =
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * t))) land mask
  done;
  for t = 16 to 63 do
    let x = w.(t - 15) and y = w.(t - 2) in
    let dx = double x and dy = double y in
    let s0 = ((dx lsr 7) lxor (dx lsr 18) lxor (x lsr 3)) land mask in
    let s1 = ((dy lsr 17) lxor (dy lsr 19) lxor (y lsr 10)) land mask in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for t = 0 to 63 do
    let e' = !e and a' = !a and b' = !b in
    let de = double e' and da = double a' in
    let s1 = ((de lsr 6) lxor (de lsr 11) lxor (de lsr 25)) land mask in
    let ch = !g lxor (e' land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + (k.(t) + w.(t)) in
    let s0 = ((da lsr 2) lxor (da lsr 13) lxor (da lsr 22)) land mask in
    let maj = (a' land b') lor (!c land (a' lor b')) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + t1) land mask;
    d := !c;
    c := b';
    b := a';
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

type midstate = int array

let midstate block =
  if String.length block <> 64 then invalid_arg "Sha256.midstate: need 64 bytes";
  let h = Array.copy iv in
  compress (Domain.DLS.get scratch).w h (Bytes.unsafe_of_string block) 0;
  h

(* Hashes [msg] on from chaining state [h0], which [prefix] bytes left.
   Whole blocks are compressed in place; only the remainder is copied, into
   one or two scratch blocks that carry the padding: 0x80, zeros, then the
   bit length of prefix and message as a big-endian 64-bit word. *)
let digest_from h0 ~prefix msg =
  let { w; h; tail } = Domain.DLS.get scratch in
  Array.blit h0 0 h 0 8;
  let len = Bytes.length msg in
  let full = len / 64 * 64 in
  for b = 0 to (len / 64) - 1 do
    compress w h msg (64 * b)
  done;
  let rem = len - full in
  let tail_len = if rem < 56 then 64 else 128 in
  Bytes.blit msg full tail 0 rem;
  Bytes.set tail rem '\x80';
  Bytes.fill tail (rem + 1) (tail_len - rem - 9) '\000';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int (8 * (prefix + len)));
  compress w h tail 0;
  if tail_len = 128 then compress w h tail 64;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_bytes msg = digest_from iv ~prefix:0 msg

(* [digest_from] only reads its message, so sharing the string is safe. *)
let resume m msg = digest_from m ~prefix:64 (Bytes.unsafe_of_string msg)

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let hex_digits = "0123456789abcdef"

let to_hex d =
  let out = Bytes.create (2 * String.length d) in
  for i = 0 to String.length d - 1 do
    let b = Char.code (String.unsafe_get d i) in
    Bytes.unsafe_set out (2 * i) hex_digits.[b lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[b land 15]
  done;
  Bytes.unsafe_to_string out

let of_raw s = if String.length s <> 32 then invalid_arg "Sha256.of_raw: need 32 bytes" else s

let to_raw d = d

let equal = String.equal

let compare = String.compare

let first64 d = String.get_int64_be d 0
