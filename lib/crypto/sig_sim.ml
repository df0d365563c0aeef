type keypair = { node : int; secret : string; public : string }

type signature = { signer : int; tag : Sha256.digest }

(* The secret key of [node] in the key domain [seed]; [keygen] and [key_of]
   derive it the same way. *)
let secret_of ~seed ~node =
  Sha256.to_raw
    (Sha256.digest_string (String.concat "|" [ "bftsim-sk"; string_of_int seed; string_of_int node ]))

(* Each domain keeps the prepared keys of the signers it has checked under
   one seed, and empties the table when the seed changes.  A prepared key
   is a pure function of (seed, node), so the table only saves work: every
   verify still recomputes the MAC over its message.  It is per domain for
   the same reason [Sha256]'s scratch is: [Runner.run_many] runs a run on
   each of several domains at once. *)
module Keys = Hashtbl.Make (Int)

type table = { mutable seed : int; keys : Hmac.prepared Keys.t }

let table = Domain.DLS.new_key (fun () -> { seed = 0; keys = Keys.create 64 })

let key_of ~seed ~node =
  let t = Domain.DLS.get table in
  if t.seed <> seed then begin
    Keys.reset t.keys;
    t.seed <- seed
  end;
  match Keys.find t.keys node with
  | key -> key
  | exception Not_found ->
      let key = Hmac.prepare (secret_of ~seed ~node) in
      Keys.add t.keys node key;
      key

let keygen ~seed ~node =
  let secret = secret_of ~seed ~node in
  let public = Sha256.to_hex (Sha256.digest_string ("bftsim-pk|" ^ secret)) in
  { node; secret; public }

let sign kp msg = { signer = kp.node; tag = Hmac.mac ~key:kp.secret msg }

let verify ~seed s msg = Sha256.equal (Hmac.mac_with (key_of ~seed ~node:s.signer) msg) s.tag
