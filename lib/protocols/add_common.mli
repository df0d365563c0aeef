(** Shared core of the three ADD+ synchronous BA variants
    (Abraham, Devadas, Dolev, Nayak, Ren 2018; paper §III-B1).

    Execution is lock-step: every slot lasts exactly one lambda (the known
    synchronous delay bound), and nodes act on slot-boundary time events.
    Per iteration:

    - {b v1}: deterministic round-robin leader; propose → vote → tally.
      A static attacker that crashes the first [f] scheduled leaders wastes
      the first [f] iterations (Fig. 8 left).
    - {b v2}: adds VRF leader election (lowest ticket wins), defeating the
      static attacker — but a rushing adaptive attacker that corrupts each
      winner right after the credentials are revealed, before the winner's
      proposal, still wastes an iteration per corruption (Fig. 8 right).
    - {b v3}: adds a prepare round {e before} the credential reveal: every
      node broadcasts its proposal content first, and the elected leader's
      already-delivered prepare {e is} the proposal.  Corrupting the winner
      after the reveal is too late, restoring expected-constant-round
      termination under the rushing adaptive attacker.

    Once a node has seen [n - f] votes for a value it decides and notifies;
    [f + 1] notifications are also sufficient to decide (they prove an
    honest node decided).  Decided nodes keep voting their decided value so
    stragglers can finish. *)

open Bftsim_net
module Vrf = Bftsim_crypto.Vrf

type variant = V1 | V2 | V3

type Message.payload +=
  | Add_prepare of { iter : int; value : string }
  | Add_credential of { iter : int; credential : Vrf.evaluation }
  | Add_propose of { iter : int; value : string }
  | Add_vote of { iter : int; leader : int; value : string }
  | Add_notify of { value : string }

type Bftsim_sim.Timer.payload += Add_slot of { iter : int; slot : int }

type node

val create : variant -> Context.t -> node

val on_start : node -> Context.t -> unit

val on_message : node -> Context.t -> Message.t -> unit

val on_timer : node -> Context.t -> Bftsim_sim.Timer.t -> unit

val current_iteration : node -> int
