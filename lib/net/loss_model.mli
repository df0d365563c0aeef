(** Per-link stochastic network faults.

    The delay model ({!Delay_model}) decides {e when} a message arrives;
    attackers decide {e whether an adversary} suppresses it; this module
    models the {e network itself} misbehaving: independent drops,
    duplication, a bounded reordering window, and bursty loss via a
    two-state Gilbert–Elliott chain per link.  All draws come from the RNG
    the caller threads in, so lossy runs stay bit-identical across
    [--jobs] like everything else. *)

type burst = { p_gb : float; p_bg : float; p_bad : float }
(** Gilbert–Elliott parameters: per-message transition probabilities
    good→bad ([p_gb]) and bad→good ([p_bg]), and the drop probability
    while in the bad state ([p_bad]).  The steady independent [drop]
    probability still applies in both states. *)

type t = {
  drop : float;  (** independent per-message drop probability *)
  dup : float;  (** per-delivered-message duplication probability *)
  reorder_ms : float;
      (** extra uniform [0, reorder_ms) delay per delivered message;
          0 disables reordering *)
  burst : burst option;
}

val none : t
(** The lossless model; {!is_none} holds.  Runs configured with [none]
    must be byte-identical to runs that predate this module. *)

val is_none : t -> bool

val make :
  ?drop:float -> ?dup:float -> ?reorder_ms:float -> ?burst:burst -> unit -> t

val validate : t -> unit
(** @raise Invalid_argument if any probability lies outside [0, 1] or the
    reorder window is negative. *)

val burst_of_string : string -> burst
(** Parses ["p_gb,p_bg,p_bad"].  @raise Invalid_argument on malformed
    input. *)

val burst_to_string : burst -> string
(** Inverse of {!burst_of_string}; reads back exactly
    ({!Bftsim_sim.Float_text.to_string}). *)

val describe : t -> string
(** One-line human summary, ["lossless"] for {!none}. *)

type state
(** Owns the per-link Gilbert–Elliott chains; one per run. *)

val state : t -> state

type verdict = {
  deliver : bool;
  duplicate : bool;  (** meaningful only when [deliver] *)
  reorder_extra_ms : float;  (** meaningful only when [deliver] *)
}

val sample : ?model:t -> state -> Bftsim_sim.Rng.t -> src:int -> dst:int -> verdict
(** One per-message draw for link [src -> dst], under [model] (default: the
    state's own; its burst chains are used either way).  Draw order (burst
    transition, drop, dup, reorder) is fixed: it is part of the
    lossy-fingerprint determinism contract. *)
