(** Deterministic pseudo-random number generation.

    Every simulation run must be a pure function of its seed so that traces
    can be replayed and cross-validated (paper §III-A6).  We therefore avoid
    the global [Random] state and thread explicit generators, built on the
    splitmix64 algorithm (Steele, Lea & Flood 2014), through the simulator.

    The distribution samplers cover the network-delay distributions the paper
    uses ([N(mu, sigma)] normal delays, Poisson, exponential) plus the
    uniform helpers protocols need for value choices and leader election. *)

type t
(** A mutable generator.  Not thread-safe; each simulation owns its own.
    The 64-bit state is held unboxed, so drawing allocates nothing beyond
    the boxed result a caller in another module receives, and
    {!truncated_normal_into} not even that. *)

val create : int -> t
(** [create seed] is a fresh generator.  Equal seeds yield equal streams. *)

val copy : t -> t
(** An independent generator that continues from the same state. *)

val split : t -> t
(** [split t] derives a statistically independent child generator and
    advances [t].  Used to give each module (network, attacker, every node)
    its own stream so adding a consumer does not perturb the others. *)

val bits64 : t -> int64
(** Next raw 64 pseudo-random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [\[lo, hi\]]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_into : t -> float -> float array -> unit
(** [float_into t bound cell] draws what {!float} would and writes it to
    [cell.(0)], so the draw allocates nothing. *)

val chance : t -> float -> bool
(** [chance t p] is [float t 1. < p]: one uniform draw compared with the
    probability [p], the same draw and the same verdict, without boxing
    the uniform. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian via the Box–Muller transform. *)

val truncated_normal : t -> mu:float -> sigma:float -> lo:float -> float
(** Gaussian resampled (then clamped after 64 attempts) to be [>= lo]; the
    paper samples network delays from [N(mu, sigma)], which must be
    non-negative to be meaningful as delays. *)

val truncated_normal_into : t -> mu:float -> sigma:float -> lo:float -> float array -> unit
(** [truncated_normal_into t ~mu ~sigma ~lo cell] draws what
    {!truncated_normal} would and writes it to [cell.(0)], so the draw
    allocates nothing: a float returned to another module is boxed. *)

val exponential : t -> mean:float -> float
(** Exponential with the given mean. *)

val exponential_into : t -> float array -> unit
(** [exponential_into t cell] replaces the mean in [cell.(0)] with what
    {!exponential} would draw for it, so the draw allocates nothing. *)

val poisson : t -> mean:float -> int
(** Poisson-distributed count (Knuth's algorithm; O(mean)).  Means above
    500 are drawn as a sum of independent draws of mean at most 500, so
    [e^-mean] never underflows; means up to 500 take a single draw.
    @raise Invalid_argument if [mean] is negative or not finite. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element.
    @raise Invalid_argument on an empty array. *)
