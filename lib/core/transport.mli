(** The send/deliver path (paper §III-A4) as a per-run stack of stages.

    {!create} builds the stack once per run from the {!Config.t}: the base
    wire is always present; a down-node stage (when the chaos plan crashes
    a node), the reliable channel, gossip and the twins stage are stacked
    on it only when configured, so a feature that is off is absent rather
    than branched around.  Sends go down the stack, deliveries come up it.
    Each stage owns its frame payloads, its timer payloads and its [net.*]
    counters (DESIGN.md §3.6, §3.17).

    The wire builds one envelope per send or broadcast, shared by every
    recipient; a unicast is a broadcast to one.  A delivery's destination
    and message id travel beside the envelope as arguments, through the
    chaos plan's verdict, the attacker's and the loss model, into the
    controller's arrival calendar; its delay travels in a float cell the
    wire owns, from the network's draw to the calendar, so it is boxed only
    for a verdict.  Ids are issued one per recipient, in send order. *)

open Bftsim_sim
open Bftsim_net

type Message.payload +=
  | Gossip_frame of { origin : int; gid : int; tag : string; size : int; inner : Message.payload }
      (** Gossip envelope: first-time receivers unwrap [inner] for their
          protocol and re-forward the frame to [fanout] peers. *)
  | Rc_frame of { seq : int; tag : string; size : int; inner : Message.payload }
      (** Reliable-channel envelope: per-(src, dst) sequence number and the
          wrapped payload with its original tag and size. *)
  | Rc_ack of { seq : int }

type Timer.payload += Rc_retransmit of { dst : int; seq : int }
(** The reliable channel's retransmission alarm, owned by the sending
    node. *)

type env = {
  config : Config.t;  (** Node ids below the protocol are physical ([Config.physical_n]). *)
  network : Network.t;
  rng : Rng.t;  (** Root stream; {!create} splits the stage streams off it. *)
  now : unit -> Time.t;
  lifecycle : Lifecycle.t;
      (** Which nodes never run, which are down when, and the chaos plan
          the wire asks for its send-time verdict and loss windows. *)
  cpus : Cost_model.cpu array;  (** Per-node sequential CPUs; a send waits for signing. *)
  attack : (Message.t -> dst:int -> delay_ms:float -> Bftsim_attack.Attacker.verdict) option;
      (** The adversary's verdict on one delivery, or [None] without an
          adversary.  The wire asks it last: after the chaos plan admits
          the delivery and, under twins, after the round's partition
          ({!Bftsim_attack.Twins_schedule.separated}, set up once per run)
          lets it through.  With no plan, no twins and no adversary, no
          verdict is asked. *)
  next_id : unit -> int;  (** A fresh message id. *)
  deliver_at : Message.t -> dst:int -> id:int -> float array -> unit;
      (** [deliver_at msg ~dst ~id delay] enqueues the delivery of message
          [id] to [dst] after [delay.(0)] ms, which is final.  It reads the
          cell and does not write it. *)
  arm_timer : owner:int -> delay_ms:float -> tag:string -> Timer.payload -> Timer.id;
  telemetry : Telemetry.t;
  dropped : int ref;  (** Messages the stack discarded: the run's [messages_dropped]. *)
}
(** What the controller hands the stack: configuration, clock, the node
    lifecycle and chaos plan, the event queue, the attacker verdict, timers
    and the run's telemetry. *)

type up = Message.t -> dst:int -> unit
(** A handler for arriving deliveries: envelope and destination. *)

type stage = {
  send : src:int -> dst:int -> tag:string -> size:int -> Message.payload -> unit;
  broadcast : src:int -> include_self:bool -> tag:string -> size:int -> Message.payload -> unit;
  deliver : up -> up;
      (** [deliver up] is the handler for deliveries arriving from the
          wire: the stages below run first, then this stage consumes its
          own frames and passes the rest, and what it unwraps, to [up].
          An unwrapped message still draws a message id, so the ids of
          later messages keep their numbers. *)
  on_timer : Timer.t -> bool;  (** [true] when a stage consumed the alarm. *)
}

val create : env -> stage
(** The top of the stack: protocol sends enter its [send]/[broadcast], and
    [deliver up] is the handler for arrivals, handing [up] what reaches the
    top.  Under twins, [send]'s [dst] is a logical identity, expanded to
    its physical instances; everything below addresses physical ids. *)

val reliable : env -> Rng.t -> stage -> stage
(** The reliable-channel stage over [lower]: remote sends are wrapped in
    sequence-numbered {!Rc_frame}s, acked and deduplicated by the receiver,
    and retransmitted with exponential backoff and jitter until
    [retrans_max] attempts.  Exposed so it can run over a fake wire. *)
