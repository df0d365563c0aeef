(** The abstracted global attacker (paper §III-A5).

    Instead of instantiating individual Byzantine nodes, the simulator routes
    {e every} message through a single attacker that may observe, delay, drop
    or forge traffic and may adaptively corrupt nodes during execution.  This
    subsumes the classical per-node Byzantine model: controlling all messages
    a node emits is equivalent to controlling the node as observed by the
    rest of the system (§III-C).

    Because the attacker sees each message before its delivery event is
    registered, every attacker is a {e rushing} attacker by construction.
    It cannot, however, retract a message it has already let through — the
    standard in-flight delivery guarantee that makes ADD+v3's
    prepare-then-reveal defence meaningful.

    An attacker implementation provides exactly the two callbacks of the
    paper: [attack] (per forwarded message) and [on_time_event]. *)

open Bftsim_sim
open Bftsim_net

type verdict =
  | Deliver  (** Register the message event with its (possibly rewritten) delay. *)
  | Drop  (** Suppress the message silently. *)

type env = {
  n : int;
  f : int;  (** Corruption budget: at most [f] nodes may ever be corrupted. *)
  lambda_ms : float;  (** The protocol's assumed delay bound (public knowledge). *)
  now : unit -> Time.t;
  rng : Rng.t;  (** Attacker-owned randomness stream. *)
  topology : Topology.t;
  set_timer : delay_ms:float -> tag:string -> Timer.payload -> Timer.id;
  inject :
    src:int -> dst:int -> delay_ms:float -> tag:string -> size:int -> Message.payload -> unit;
      (** Forge a message that appears to come from [src]; it bypasses the
          network's delay sampling (the attacker chooses the delay) but is
          dispatched as an ordinary message event. *)
  corrupt : int -> bool;
      (** Request adaptive corruption of a node.  Returns [false] when the
          budget [f] is exhausted or the node is already corrupted;
          otherwise marks it and returns [true]. *)
  is_corrupted : int -> bool;
  corrupted : unit -> int list;  (** Currently corrupted nodes, ascending. *)
}
(** Capabilities the controller grants the attacker. *)

type t = {
  name : string;
  on_start : env -> unit;  (** Called once before the first event. *)
  attack : env -> Message.t -> verdict;
      (** Inspect/modify one in-flight message (mutate [delay_ms] to delay
          it) and rule on its delivery. *)
  on_time_event : env -> Timer.t -> unit;
      (** Runs when a timer registered through [env.set_timer] fires. *)
}

val passthrough : t
(** The no-op attacker: benign network. *)

val drop_from_corrupted : env -> Message.t -> verdict
(** Building block shared by adaptive attackers: silence every message whose
    sender is corrupted (equivalent to fail-stopping the node from the
    outside). *)

val delay_all : extra_ms:float -> t
(** Adds a fixed extra delay to every message — a crude WAN degradation used
    in tests and examples. *)
