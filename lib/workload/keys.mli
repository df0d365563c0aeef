(** Request key distributions (DESIGN.md §3.16).

    Every client request carries a contention key drawn from one of these
    distributions; requests that commit adjacently with equal keys are
    counted as conflicts ([wl.key_conflicts]), modeling execution-layer
    contention on top of the consensus commit order.  [Single] — the
    default — assigns key [0] without consuming randomness, so unkeyed runs
    keep their historical random streams (and fingerprints) exactly. *)

open Bftsim_sim

type t =
  | Single  (** Every request keyed [0]; no RNG draw. *)
  | Uniform of { space : int }  (** Uniform over [\[0, space)]. *)
  | Zipf of { s : float; space : int }
      (** Zipfian with exponent [s]: P(key = k) proportional to
          [1/(k+1)^s] — a small set of hot keys takes most of the load. *)

val validate : t -> unit
(** @raise Invalid_argument on non-positive spaces/exponents. *)

val uniform : space:int -> t

val zipf : ?space:int -> s:float -> unit -> t

type sampler
(** Precomputed per-run sampling state (the zipf CDF table). *)

val sampler : t -> sampler

val sample : sampler -> Rng.t -> int
(** Draw one key.  [Single] consumes no randomness; the others consume
    exactly one [Rng.float] draw (O(log space) CDF binary search). *)

val describe : t -> string

val to_cli_string : t -> string
(** Round-trips through {!of_string}: ["single"] | ["uniform:<n>"] |
    ["zipf:<s>[,<n>]"]. *)

val of_string : string -> (t, string) result
