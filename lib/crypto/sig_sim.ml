type keypair = { node : int; secret : string; public : string }

type signature = { signer : int; tag : Sha256.digest }

let secret_of ~seed ~node =
  Sha256.to_raw
    (Sha256.digest_string (String.concat "|" [ "bftsim-sk"; string_of_int seed; string_of_int node ]))

let keygen ~seed ~node =
  let secret = secret_of ~seed ~node in
  let public = Sha256.to_hex (Sha256.digest_string ("bftsim-pk|" ^ secret)) in
  { node; secret; public }

let sign kp msg = { signer = kp.node; tag = Hmac.mac ~key:kp.secret msg }

let verify ~seed s msg =
  let secret = secret_of ~seed ~node:s.signer in
  Hmac.verify ~key:secret msg s.tag

let pp ppf s = Format.fprintf ppf "sig[%d:%a]" s.signer Sha256.pp s.tag
