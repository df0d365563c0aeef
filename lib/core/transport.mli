(** The send/deliver path (paper §III-A4) as a per-run stack of stages.

    {!create} builds the stack once per run from the {!Config.t}: the base
    wire is always present; a down-node stage (when the chaos plan crashes
    a node), the reliable channel, gossip and the twins stage are stacked
    on it only when configured, so a feature that is off is absent rather
    than branched around.  Sends go down the stack, deliveries come up it.  Each stage
    owns its envelope, its timer payloads and its [net.*] counters
    (DESIGN.md §3.6, §3.17). *)

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
  attack : Message.t -> Bftsim_attack.Attacker.verdict;
      (** The adversary's verdict on a send.  The wire asks it last: after
          the chaos plan admits the message and, under twins, after the
          round's partition ({!Bftsim_attack.Twins_schedule.separated}, set
          up once per run) lets it through. *)
  delay_override : (src:int -> dst:int -> tag:string -> seq:int -> float option) option;
      (** Replay: the recorded delay of the [seq]-th send on a link. *)
  next_id : unit -> int;  (** A fresh message id. *)
  deliver_at : Message.t -> unit;  (** Enqueue the message at its arrival time. *)
  arm_timer : owner:int -> delay_ms:float -> tag:string -> Timer.payload -> Timer.id;
  telemetry : Telemetry.t;
  dropped : int ref;  (** Messages the stack discarded: the run's [messages_dropped]. *)
}
(** What the controller hands the stack: configuration, clock, the node
    lifecycle and chaos plan, the event queue, the attacker verdict, timers
    and the run's telemetry. *)

type stage = {
  send : src:int -> dst:int -> tag:string -> size:int -> Message.payload -> unit;
  broadcast : src:int -> include_self:bool -> tag:string -> size:int -> Message.payload -> unit;
  deliver : (Message.t -> unit) -> Message.t -> unit;
      (** [deliver up] is the handler for messages arriving from the wire:
          the stages below run first, then this stage consumes its own
          envelopes and passes the rest (and what it unwraps) to [up]. *)
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
