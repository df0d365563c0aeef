(** Randomized scenario generation over the protocol × attacker ×
    network-model × f/n space.

    A scenario is a complete {!Bftsim_core.Config.t} plus the metadata the
    harness needs to judge it: the attacker {e family} it was drawn from and
    whether the run is expected to terminate ([expect_live]).  Generation is
    a [QCheck.Gen.t], so scenarios compose with property-based tests, and
    {!sample} derives a reproducible batch from an integer seed (the
    [bftsim conform --seed] contract).

    Model-awareness: synchronous-model protocols are generated only with
    delay models bounded by their [lambda] (their safety presumes the
    bound), and the partition / slowdown families — which deliberately break
    synchrony — are restricted to partially-synchronous and asynchronous
    protocols.  An agreement violation reported by the harness is therefore
    always an engine or protocol bug, never the model's own fine print. *)

open Bftsim_core

type family =
  | Passthrough  (** No attacker at all. *)
  | Failstop  (** 1..f config-crashed nodes (never started). *)
  | Partition_split  (** Two-subnet partition that heals within seconds. *)
  | Slowdown  (** Adversarial uniform extra delay on every message. *)
  | Crash_recover  (** Chaos schedule: crash 1..f nodes, restart them later. *)
  | Twins
      (** Twins-style Byzantine emulation: one identity runs as two
          physical halves under a round-indexed partition schedule (and
          optionally pinned leaders), mechanically producing equivocation
          without protocol-specific attacker code. *)

type t = {
  config : Config.t;
  family : family;
  expect_live : bool;
      (** Whether failing to reach the decision target counts as a liveness
          violation (crash-recover runs are exempt: recovered nodes may
          legitimately lag). *)
}

val family_to_string : family -> string
(** CLI names: [none], [failstop], [partition], [delay], [chaos],
    [twins]. *)

val family_of_string : string -> family option

val applicable : model:Bftsim_protocols.Protocol_intf.network_model -> family -> bool

val gen : ?protocols:string list -> ?families:family list -> unit -> t QCheck.Gen.t
(** Generator over the given protocols (default: every registered protocol)
    and families (default: all).  Families inapplicable to a drawn
    protocol's model fall back to {!Passthrough}.
    @raise Invalid_argument on an empty family list. *)

val sample : ?protocols:string list -> ?families:family list -> budget:int -> seed:int -> unit -> t list
(** [sample ~budget ~seed ()] draws [budget] scenarios deterministically
    from [seed]. *)

val describe : t -> string
