(** Quorum arithmetic shared by every protocol.

    With [n] nodes of which at most [f] are faulty, BFT protocols rely on
    two thresholds: a {e quorum} of [n - f] (any two quorums intersect in an
    honest node when [n > 3f]) and [f + 1] (at least one honest node).  The
    experiments run configurations like [n = 16] that are not of the tight
    [3f + 1] form, so thresholds are computed from [n] alone via the maximal
    tolerable [f]. *)

val max_faulty : int -> int
(** [max_faulty n] is [(n - 1) / 3], the largest [f] with [n > 3f]. *)

val quorum : int -> int
(** [quorum n = n - max_faulty n]; e.g. 11 for [n = 16]. *)

val one_honest : int -> int
(** [one_honest n = max_faulty n + 1]: any such set contains an honest node. *)

val supermajority : int -> int
(** [2 f + 1] for [f = max_faulty n] — Algorand's certification threshold. *)

val check : n:int -> f:int -> unit
(** @raise Invalid_argument unless [0 <= f] and [n > 3 f]. *)

(** {2 Mutation-testing hook}

    The conformance harness's value rests on actually catching bugs, so a
    known quorum-arithmetic bug can be injected on demand and the harness
    asserted to flag it (the CI mutation-smoke step).  Exactly one mutation
    exists today: *)

type mutation =
  | Quorum_minus_one
      (** [quorum n] returns one vote too few — quorums may no longer
          intersect in an honest node, the classic off-by-one that breaks
          agreement without affecting liveness. *)

val set_mutation : mutation option -> unit
(** Activate/clear the injected bug (process-global, tests only). *)

val mutation : unit -> mutation option
(** The active mutation; seeded from the [BFTSIM_MUTATE] environment
    variable ([quorum-minus-one]) at startup. *)

val mutation_to_string : mutation -> string
