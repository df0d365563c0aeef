(** Bracha's asynchronous Byzantine agreement (paper §III-B3).

    Classic binary-value BFT for fully asynchronous networks: no timers at
    all — progress is driven purely by message quorums, so the FLP result
    applies and termination is only probabilistic.  Each round has three
    phases (value, ratify, decide-or-adopt) with [n-f] receipt thresholds;
    the fallback randomness is a common coin, modelled as a shared hash
    oracle on the round number — the standard cryptographic common-coin
    setup that turns Bracha's exponential local-coin variant into an
    expected-constant-round protocol.

    Inputs: the node's input bit is parsed from {!Context.t.input} when that
    is ["0"] or ["1"], otherwise derived from a hash of the input string. *)

open Bftsim_net

type Message.payload += Aba of { round : int; phase : int; value : int }
(** [value] is 0 or 1 in phases 1–2; phase 3 additionally allows 2 = ⊥. *)

include Protocol_intf.S
