(** Twins campaign synthesis: enumerated schedules compiled into
    conformance scenarios, ready for {!Bftsim_conformance.Harness}
    [fuzz_scenarios].

    Each scenario pairs one enumerated schedule with one protocol, under a
    deterministic constant-delay network, and is judged by the full oracle
    suite.  Liveness is only expected of schedules that never cut an honest
    node off from a quorum ({!Bftsim_attack.Twins_schedule.preserves_liveness});
    crash-fragile protocols get {e no} exemption here — a twins campaign is
    precisely the tool that rediscovers such weaknesses. *)

type params = {
  n : int;  (** Logical system size (physical size is [n + 1]). *)
  rounds : int;  (** Schedule length in rounds. *)
  round_ms : float;  (** Round duration, sim-ms. *)
  lambda_ms : float;  (** Protocol timeout parameter. *)
  delay_ms : float;  (** Constant link delay. *)
  seed : int;  (** Config seed shared by every scenario. *)
  max_time_ms : float;  (** Simulated-time cap per run. *)
}

val default_params : params
(** n = 4, 3 rounds of 2000 ms, lambda 1000 ms, delay 100 ms, seed 1,
    240 s cap. *)

val synthesize :
  ?protocols:string list ->
  budget:int ->
  params:params ->
  unit ->
  Bftsim_conformance.Scenario.t list * Enumerate.stats
(** [synthesize ~budget ~params ()] enumerates, keeps the first [budget]
    schedules (most-adversarial-first), and crosses them with every
    applicable protocol ([protocols] defaults to the whole registry).
    Deterministic: same arguments, same scenario list.
    @raise Invalid_argument when [budget <= 0]. *)

val pp_stats : Format.formatter -> Enumerate.stats -> unit
