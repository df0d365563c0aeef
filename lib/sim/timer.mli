(** Time-triggered events ("time events" in paper §III-A2).

    A consensus node or an attacker registers a timer with the controller;
    when the simulation clock reaches the deadline the owner's
    [on_time_event] callback runs with the timer's payload.  Payloads use an
    extensible variant so every protocol declares its own timer kinds without
    this module knowing about them. *)

type payload = ..
(** Protocol- or attacker-specific timer payloads.  Extend with e.g.
    [type Timer.payload += View_timeout of int]. *)

type payload += Tick
(** A generic payload for callers that only need a wake-up. *)

type id = int
(** Handle used to cancel a pending timer.  Unique within one simulation. *)

type t = {
  id : id;
  owner : int;  (** Node index, or {!attacker_owner} for the attacker. *)
  deadline : Time.t;
  tag : string;  (** Human-readable label recorded in traces. *)
  payload : payload;
}

val attacker_owner : int
(** Distinguished owner index for attacker timers (-1). *)
