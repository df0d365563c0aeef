(** Algorand Agreement (Chen, Gorbunov, Micali, Vlachos 2018) —
    paper §III-B2.

    A synchronous, partition-resilient BFT protocol.  Execution proceeds in
    {e periods} of four lambda-paced steps: every node broadcasts a
    VRF-credentialed proposal; soft-votes go to the proposal with the
    lowest credential; 2f+1 soft-votes trigger a cert-vote; 2f+1 cert-votes
    decide.  If nothing certifies, next-votes (re-broadcast while stuck, so
    a healed partition can drain them) establish the next period's starting
    value.  Safety never depends on timing — only liveness does — which is
    what makes the protocol partition-resilient (Fig. 6). *)

open Bftsim_net
module Vrf = Bftsim_crypto.Vrf

type Message.payload +=
  | Alg_proposal of { period : int; value : string; credential : Vrf.evaluation }
  | Alg_soft of { period : int; value : string }
  | Alg_cert of { period : int; value : string }
  | Alg_next of { period : int; value : string }
      (** [value = ""] encodes the bottom next-vote. *)

type Bftsim_sim.Timer.payload += Alg_step of { period : int; step : int }

include Protocol_intf.S
