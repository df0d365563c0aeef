(** One run's telemetry (DESIGN.md §3.11): the validation {!Trace.t}, the
    metrics registry, the span tracer, the arming times behind timer spans
    and the [Simlog] mirror, built from [record_trace], [telemetry] and
    the queue clock.  Callers report what happened; which sinks hear of it
    is decided here.  With every sink off an event allocates nothing. *)

open Bftsim_sim
open Bftsim_net

type t

val create : Config.t -> now_ms:(unit -> float) -> restarts:bool -> t
(** [restarts]: the run can restart a node, so restart-to-caught-up times
    are recorded. *)

val mirror : t -> (level:Logs.level -> string -> unit) option
(** The [Simlog] mirror that puts warn/err lines on the trace timeline, when
    tracing. *)

val trace : t -> Trace.t option

val metrics : t -> Bftsim_obs.Metrics.t option

val tracer : t -> Bftsim_obs.Tracer.t option

val watching : t -> bool
(** Metrics or tracing is on: the run reports {!view}s. *)

val counter : t -> string -> int ref
(** A counter owned by the caller; a dead cell without metrics. *)

val histogram : t -> ?buckets:float array -> string -> Bftsim_obs.Metrics.histogram option

type message =
  | Sent  (** By its source, before the attacker's verdict. *)
  | Injected  (** Sent by the attacker; it enters the queue next. *)
  | Delivered  (** To its destination node. *)
  | Dropped  (** By the attacker. *)
  | Lost  (** By the loss model. *)
  | Lost_at_down_node

val message : t -> message -> Message.t -> dst:int -> unit
(** What happened to the delivery of an envelope to [dst]. *)

val in_flight : t -> Message.t -> dst:int -> id:int -> float array -> unit
(** The delivery of message [id] entered the event queue to arrive after
    its final delay, in the cell's slot 0, which a recorded trace keeps
    for replay. *)

val gave_up : t -> src:int -> dst:int -> tag:string -> unit
(** The reliable channel abandoned a frame. *)

type alarm =
  | Armed
  | Fired
  | Fired_at_node  (** Into its owner node's handler. *)
  | Cancelled  (** By its owner, or armed by a previous incarnation. *)
  | Released  (** Consumed without firing. *)

val alarm : t -> alarm -> Timer.t -> unit

val call_armed : t -> unit
(** An alarm without a timer — a caller's, or a reliable-channel
    retransmission — was armed: it counts in [timer.set]. *)

val call_fired : t -> tag:string -> node:int -> armed_ms:float -> unit
(** Such an alarm of [node]'s, armed at [armed_ms], fires: it counts in
    [timer.fired] and, when tracing, spans [timer:<tag>] on [node]'s track
    from its arming. *)

val open_timer_spans : t -> int
(** Alarms armed and not yet consumed (counted only when tracing). *)

val decided : t -> node:int -> index:int -> string -> unit

val watch_views : t -> int array -> unit
(** The nodes' views once they have started. *)

val view : t -> node:int -> int -> unit
(** A node's view after one of its handlers. *)

val restarted : t -> int -> unit

val caught_up : t -> node:int -> ms:float -> unit

val corrupted : t -> int -> unit

val dispatched : t -> ('a -> string * int) -> ('a -> unit) -> 'a -> unit
(** [dispatched t label handle ev] runs [handle ev]; when tracing, the
    span [label ev] names carries the handler's host time. *)

val finish : t -> time_ms:float -> pending_events:int -> twin_instances:int option -> unit
(** The end-of-run gauges. *)
