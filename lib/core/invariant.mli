(** Online invariant monitors.

    The seed checked agreement {e post hoc}, after the run ended; under
    chaos schedules that is too late — a violation may be transient state
    that later crashes, recoveries or view changes paper over.  This module
    checks each decision the instant it is made:

    - {b agreement}: for every decision index, all aligned honest nodes
      must decide the same value (first decider fixes the expectation).
      Per-index comparison presumes complete logs, so nodes that crashed
      and recovered mid-run are excluded via the [aligned] predicate: their
      logs miss what was decided while they were down until they catch up,
      and only pbft and the chained family fetch it (the recovery oracle
      checks their logs instead);
    - {b validity}: when enabled, every decided value must derive from a
      configured proposal (contain some proposed value verbatim — protocols
      encode decisions differently, e.g. PBFT's ["<input>/slot<k>"]).
      Meaningful only for protocols that decide input-derived values, not
      chained protocols that decide block digests;
    - {b crashed-decide}: a node that is down (config-crashed or
      chaos-crashed at that instant) must not decide at all — a sanity
      check on the fault-injection plumbing itself.

    Violations are recorded with their timestamp and returned in detection
    order; the controller surfaces them in the run result.  The liveness
    watchdog is the controller's job (it needs the event clock), not this
    module's. *)

type violation = {
  at_ms : float;  (** Simulation time the violation was detected. *)
  monitor : string;  (** ["agreement"], ["validity"] or ["crashed-decide"]. *)
  detail : string;  (** Human-readable account of what went wrong. *)
}

type t

val create :
  counted:(int -> bool) ->
  ?aligned:(int -> bool) ->
  crashed_now:(node:int -> at_ms:float -> bool) ->
  ?valid_values:string list ->
  unit ->
  t
(** [counted node] says whether the node's decisions are monitored at all
    (honest, not permanently failed) — evaluated at decision time.
    [aligned node] (default [counted]) additionally admits the node to the
    per-index agreement check; pass a stricter predicate to exempt nodes
    whose logs are legitimately sparse (crash-and-recover without state
    transfer).  [crashed_now] is the fault plan's crash predicate.
    [valid_values] enables the validity monitor with the proposal set
    decisions must derive from. *)

val derived_from_proposal : string list -> string -> bool
(** [derived_from_proposal proposals value]: some proposed value occurs in
    [value] verbatim — the validity predicate, shared with the conformance
    oracle. *)

val on_decide : t -> node:int -> index:int -> value:string -> at_ms:float -> unit
(** Feed one decision ([index] = how many the node had already made). *)

val violations : t -> violation list
(** All violations so far, in detection order. *)

val ok : t -> bool

val first_violation : t -> monitor:string -> violation option
(** Earliest violation of the given monitor, if any. *)

val describe_violation : violation -> string
