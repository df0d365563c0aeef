(** The network module (paper §III-A4).

    Each node is connected to this module.  A sender hands over an envelope
    and a destination; the network samples the [delay] variable from the
    configured distribution (plus the one-way zone latency when the
    topology has geographic zones) and forwards the delivery onward — in
    the full simulator the next hop is the attacker module, then the event
    queue.

    With a per-link bandwidth configured, each sender's egress link is a
    FIFO server: a message waits behind everything the sender already put
    on the wire, then occupies the link for its serialization time, so
    message {e size} translates into delay and congestion.  The network
    also keeps the message-usage counters backing the paper's second metric
    (§II-C). *)

open Bftsim_sim

type t

type stats = {
  sent : int;  (** Messages that entered the network. *)
  bytes : int;  (** Sum of estimated message sizes. *)
  queued : int;  (** Messages that waited behind a busy egress link. *)
  queue_ms_total : float;  (** Total time spent waiting in egress queues. *)
}

val create :
  ?bandwidth_mbps:float -> delay:Delay_model.t -> topology:Topology.t -> rng:Rng.t -> unit -> t
(** The network owns its RNG stream so delay sampling is independent of
    protocol randomness.  [bandwidth_mbps] enables the per-sender FIFO
    egress model; omitted means infinite bandwidth (sizes cost nothing).
    @raise Invalid_argument if [bandwidth_mbps <= 0] or non-finite. *)

val sample : t -> Message.t -> dst:int -> float array -> unit
(** [sample t msg ~dst cell] samples the delay of [msg]'s delivery to
    [dst] into [cell.(0)] and updates the counters.  The delay is egress
    queue wait + serialization + zone one-way latency + sampled jitter; a
    self-addressed delivery gets 0 (local delivery does not traverse the
    wire).  The jitter is drawn into the same cell ({!Delay_model.sample}),
    so with the paper's normal delays and no zones or bandwidth model a
    call allocates nothing. *)

val assign_delay : t -> Message.addressed -> unit
(** {!sample} for one addressed copy, written to its [delay_ms]. *)

val last_queue_ms : t -> float
(** Queue-wait + serialization component of the most recent {!sample};
    [0.] without bandwidth modelling.  Read it immediately after the call
    (it is overwritten by the next one). *)

val override_delay : t -> Delay_model.t -> unit
(** Swaps the delay distribution mid-simulation; used to model networks that
    stabilize (GST) or degrade at a known time. *)

val stats : t -> stats

val reset_stats : t -> unit
