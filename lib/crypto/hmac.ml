let block_size = 64

(* [key] zero-filled to a block and xored with [pad]: the first block of the
   inner or outer hash of RFC 2104. *)
let padded key pad =
  let klen = String.length key in
  String.init block_size (fun i ->
      let kb = if i < klen then Char.code (String.unsafe_get key i) else 0 in
      Char.unsafe_chr (kb lxor pad))

type prepared = { inner : Sha256.midstate; outer : Sha256.midstate }

let prepare key =
  let key = if String.length key > block_size then Sha256.to_raw (Sha256.digest_string key) else key in
  { inner = Sha256.midstate (padded key 0x36); outer = Sha256.midstate (padded key 0x5c) }

let mac_with k msg = Sha256.resume k.outer (Sha256.to_raw (Sha256.resume k.inner msg))

let mac ~key msg = mac_with (prepare key) msg

let verify ~key msg tag = Sha256.equal (mac ~key msg) tag
