(** Network messages (paper §III-A4).

    A message is an immutable envelope around a protocol-specific payload:
    the sender, the send instant, a tag and a size.  A send or broadcast
    builds one envelope, shared by every recipient.  What differs per
    recipient — the destination, the message id and the delay the network
    samples and the attacker may rewrite — travels beside the envelope as
    plain arguments and a float cell, and the destination and delay are
    stored in the event core's arrival calendar, never as a record per
    recipient.  Payloads are an extensible variant so each
    protocol contributes its own constructors without any central registry
    of message types — mirroring the duck-typed JS objects of the reference
    implementation, but statically typed per protocol. *)

open Bftsim_sim

type payload = ..
(** Extend per protocol: [type Message.payload += Prepare of …]. *)

type payload += Blob of string
(** A generic payload for tests and examples. *)

type t = {
  src : int;
  sent_at : Time.t;
  tag : string;  (** Human-readable message kind, recorded in traces. *)
  size : int;  (** Estimated wire size in bytes (for byte-volume estimates). *)
  payload : payload;
}
(** The envelope, what a protocol's [on_message] receives. *)

val envelope : src:int -> sent_at:Time.t -> ?tag:string -> ?size:int -> payload -> t
(** [tag] defaults to ["msg"], [size] to {!default_size}. *)

val default_size : int
(** Default estimated message size (128 bytes). *)

type addressed = { msg : t; dst : int; id : int; mutable delay_ms : float }
(** One delivery as a value, for tools that handle a single copy on its
    own: the packet-level baseline engine, and tests and benchmarks that
    drive one layer by hand.  The simulator's wire never builds one. *)

val make :
  id:int -> src:int -> dst:int -> sent_at:Time.t -> ?tag:string -> ?size:int -> payload -> addressed
(** A fresh envelope addressed to [dst], with [delay_ms = 0.]. *)

val arrival_time : addressed -> Time.t
(** [sent_at + delay_ms]: when the delivery fires. *)

val register_printer : (payload -> string option) -> unit
(** Protocols may register a printer for their payload constructors; used by
    traces and logs.  First registered printer returning [Some _] wins.
    Registration is O(1), lock-free and domain-safe: protocol initializers
    may race under a [run_many] domain pool without losing printers. *)

val payload_to_string : payload -> string
(** Rendering via registered printers, falling back to ["<payload>"]. *)
