(** Merkle trees over string leaves.

    Used to commit to batched proposals: a leader can send a root commitment
    and later reveal individual leaves with logarithmic inclusion proofs.
    The core protocols of the paper transmit whole values, but the tree is
    exercised by the batching example and gives the message-size estimator a
    realistic payload model. *)

type proof_step = Left of Sha256.digest | Right of Sha256.digest
(** One sibling on the leaf-to-root path, tagged with its side. *)

type proof = proof_step list

val root : string list -> Sha256.digest
(** Merkle root of the leaves.  An unpaired node is carried up a level
    unchanged (the RFC 6962 shape), so the root binds the leaf count.  The
    root of [\[\]] is the digest of the empty string. *)

val prove : string list -> int -> proof
(** [prove leaves i] is the inclusion proof for leaf [i].
    @raise Invalid_argument if [i] is out of bounds. *)

val verify : root:Sha256.digest -> leaf:string -> proof -> bool
(** Checks an inclusion proof. *)
