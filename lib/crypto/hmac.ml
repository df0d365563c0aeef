let block_size = 64

(* The inner or outer hash of RFC 2104, over one buffer: [key] zero-filled to
   a block and xored with [pad], then [msg]. *)
let hash_padded key pad msg =
  let klen = String.length key and mlen = String.length msg in
  let buf = Bytes.create (block_size + mlen) in
  for i = 0 to block_size - 1 do
    let kb = if i < klen then Char.code (String.unsafe_get key i) else 0 in
    Bytes.unsafe_set buf i (Char.unsafe_chr (kb lxor pad))
  done;
  Bytes.blit_string msg 0 buf block_size mlen;
  Sha256.digest_bytes buf

let mac ~key msg =
  let key = if String.length key > block_size then Sha256.to_raw (Sha256.digest_string key) else key in
  hash_padded key 0x5c (Sha256.to_raw (hash_padded key 0x36 msg))

let verify ~key msg tag = Sha256.equal (mac ~key msg) tag
