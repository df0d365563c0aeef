(** Simulated digital signatures.

    A keypair is derived deterministically from a node identifier and a
    domain seed; a signature is an HMAC under the secret key, and — because
    the whole distributed system lives inside a single simulation process —
    verification simply re-derives the signer's secret key from its public
    identity.  This preserves the two properties protocols rely on:
    unforgeability *within the simulation's honest code paths* (honest nodes
    only sign through their own keys) and non-repudiation (a vote carries
    evidence of its sender that the attacker module can forge only for
    corrupted nodes, which is exactly the paper's attacker capability). *)

type keypair = { node : int; secret : string; public : string }

type signature = { signer : int; tag : Sha256.digest }

val key_of : seed:int -> node:int -> Hmac.prepared
(** [Hmac.prepare] of [(keygen ~seed ~node).secret], taken from this
    domain's key table: the first call for a node under a seed prepares
    the key, later ones reuse it, and a call under another seed empties
    the table. *)

val keygen : seed:int -> node:int -> keypair
(** Deterministic keypair for [node] in the key domain [seed]. *)

val sign : keypair -> string -> signature

val verify : seed:int -> signature -> string -> bool
(** [verify ~seed s msg] checks that [s] is a valid signature on [msg] by
    node [s.signer] within key domain [seed]. *)
