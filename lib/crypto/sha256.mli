(** SHA-256 (FIPS 180-4), implemented from scratch.

    The simulator does not need cryptographic security against real-world
    adversaries — everything runs inside one process — but it does need a
    collision-resistant, deterministic hash to build the simulated signature
    scheme, the VRF used by ADD+v2/v3 and Algorand leader election, and
    Merkle commitments.  A faithful SHA-256 keeps those substrates honest and
    exercises realistic code paths. *)

type digest = private string
(** A 32-byte digest. *)

val digest_string : string -> digest
(** [digest_string s] is the SHA-256 digest of [s]. *)

val digest_bytes : bytes -> digest

type midstate
(** The chaining state after one 64-byte block: the resumable point of a
    digest whose messages share that block as their prefix. *)

val midstate : string -> midstate
(** [midstate block] compresses the 64-byte [block] from the initial hash.
    @raise Invalid_argument if [block] is not 64 bytes long. *)

val resume : midstate -> string -> digest
(** [resume (midstate block) msg] is [digest_string (block ^ msg)]: it
    hashes [msg] only, and its padding counts the 64-byte prefix. *)

val to_hex : digest -> string
(** Lowercase hexadecimal rendering (64 characters). *)

val of_raw : string -> digest
(** Treats a 32-byte string as a digest.
    @raise Invalid_argument if the length is not 32. *)

val to_raw : digest -> string
(** The raw 32-byte digest string. *)

val equal : digest -> digest -> bool

val compare : digest -> digest -> int

val first64 : digest -> int64
(** Big-endian interpretation of the first 8 digest bytes; handy for turning
    a digest into a sortable "lottery ticket" (VRF output ordering). *)
