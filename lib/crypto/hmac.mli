(** HMAC-SHA256 (RFC 2104).

    Keyed MACs are the deterministic primitive underneath the simulated
    signature scheme and the VRF: [HMAC(sk, msg)] plays the role of a unique
    signature, and its digest doubles as the VRF output whose pseudo-random
    value drives leader election in ADD+v2/v3 and Algorand. *)

type prepared
(** A key with its inner and outer pad blocks already compressed.  A MAC
    under it hashes only the message and the inner digest, two compressions
    fewer than one from the raw key. *)

val prepare : string -> prepared
(** [prepare key] hashes a key longer than a block first, as RFC 2104 does,
    then compresses the two pad blocks. *)

val mac_with : prepared -> string -> Sha256.digest
(** [mac_with (prepare key) msg] is [mac ~key msg]. *)

val mac : key:string -> string -> Sha256.digest
(** [mac ~key msg] is HMAC-SHA256 of [msg] under [key]. *)

val verify : key:string -> string -> Sha256.digest -> bool
(** Constant-shape recomputation check (timing resistance is irrelevant in a
    simulator; determinism is what matters). *)
