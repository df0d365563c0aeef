(** Network delay distributions (paper §III-A4).

    The delay of every message "can be sampled from any distribution, such
    as a Gaussian distribution or a Poisson distribution"; by choosing the
    distribution and an optional hard bound we realize the paper's three
    network models:

    - {b Synchronous}: delays bounded by [b <= lambda] known to the protocol
      — use {!val:bounded} with the protocol's [lambda].
    - {b Partially synchronous}: delays bounded by some [b] the protocol
      does not know — use {!val:bounded} with an arbitrary bound.
    - {b Asynchronous}: unbounded sampling — use an unbounded model. *)

open Bftsim_sim

type t =
  | Constant of float  (** Every message takes exactly this many ms. *)
  | Uniform of { lo : float; hi : float }
  | Normal of { mu : float; sigma : float }
      (** The paper's [N(mu, sigma)], truncated at 0 (delays are causal). *)
  | Exponential of { mean : float }  (** Heavy-ish tail; asynchronous runs. *)
  | Poisson of { mean : float }  (** Integer-ms Poisson delays. *)
  | LogNormal of { mu : float; sigma : float }
      (** [exp(N(mu, sigma))]: heavy-tailed WAN latencies / jitter.  Note
          [mu]/[sigma] parameterize the underlying normal, so the mean is
          [exp(mu + sigma^2/2)]. *)
  | Bounded of { base : t; bound : float }
      (** [base] clipped from above: realizes (partially-)synchronous
          networks with a hard delay bound. *)

val sample : t -> Rng.t -> float array -> unit
(** [sample t rng cell] writes one delay draw, always [>= 0] and finite,
    to [cell.(0)].  A [Normal] draw allocates nothing; a float returned
    from another module would be boxed. *)

val upper_bound : t -> float option
(** Static upper bound if one exists ([Constant], [Uniform], [Bounded]). *)

val mean : t -> float
(** Mean of the distribution.  Analytic where a closed form exists
    (ignoring the at-zero truncation of [Normal]); for [Bounded] the
    clipped mean [E(min(X, bound))] is estimated numerically from a
    fixed-seed sample, so it is deterministic but approximate. *)

val normal : mu:float -> sigma:float -> t
(** Convenience for the paper's ubiquitous [N(mu, sigma)]. *)

val log_normal : mu:float -> sigma:float -> t

val bounded : t -> bound:float -> t

val describe : t -> string
(** e.g. ["N(250,50)"]; used in experiment tables. *)

val of_string : string -> (t, string) result
(** Parses the CLI syntax: ["constant:100"], ["uniform:10,20"],
    ["normal:250,50"], ["exp:300"], ["poisson:250"], ["lognormal:1.5,0.5"],
    ["bounded:<inner>@<bound>"] e.g. ["bounded:normal:250,50@1000"]. *)

val to_cli_string : t -> string
(** Inverse of {!of_string}: renders the model in the parseable CLI syntax
    (unlike {!describe}, which renders the human notation ["N(250,50)"]),
    with every parameter printed by {!Bftsim_sim.Float_text.to_string} so it
    reads back exactly. *)
