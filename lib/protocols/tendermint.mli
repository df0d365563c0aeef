(** Tendermint consensus (Buchman, Kwon, Milosevic 2018) — extension
    protocol beyond the paper's Table I.

    The paper cites Tendermint twice (early versions used PBFT, and "the
    latest gossip on BFT consensus" appears as a newer blockchain-scale
    protocol), making it the natural ninth protocol for the simulator.
    Partially synchronous, rotating proposers, two voting steps per round
    (prevote, precommit) with value locking for safety; round timeouts grow
    linearly, so it recovers from faulty proposers without exponential
    back-off.  Nil votes let a round fail cleanly when the proposer is
    silent. *)

open Bftsim_net

type Message.payload +=
  | Tm_proposal of { height : int; round : int; value : string }
  | Tm_prevote of { height : int; round : int; value : string }
      (** [value = ""] is the nil prevote. *)
  | Tm_precommit of { height : int; round : int; value : string }

type Bftsim_sim.Timer.payload +=
  | Tm_timeout of { height : int; round : int; step : int }
      (** step 0 = propose, 1 = prevote-wait, 2 = precommit-wait. *)

include Protocol_intf.S
