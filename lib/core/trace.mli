(** Execution traces (paper §III-A6).

    A trace is the ordered sequence of observable simulation events — sends,
    deliveries, drops, timer firings and decisions.  The validator module
    replays and compares traces; tests use them to assert event-level
    behaviour; the CLI can dump them for inspection. *)

type kind =
  | Send
  | Deliver
  | Drop  (** Discarded before travelling, or abandoned by the reliable channel; [node] is the sender. *)
  | Lost  (** Reached a destination that was down; [node] is the sender. *)
  | Timer_fired
  | Decide

type entry = {
  at_ms : float;
  kind : kind;
  node : int;  (** Acting node ([-1] for the attacker). *)
  peer : int;  (** Counterpart node ([-1] when not applicable). *)
  tag : string;  (** Message/timer tag, or the decided value for [Decide]. *)
  detail : string;  (** Payload rendering for sends/deliveries. *)
}

type t

val create : unit -> t

val record : t -> entry -> unit

val entries : t -> entry list
(** In chronological (recording) order. *)

val length : t -> int

val equal : t -> t -> bool

val first_divergence : t -> t -> (int * entry option * entry option) option
(** [first_divergence a b] is [None] when the traces match, otherwise the
    index of the first differing entry together with both sides' entries at
    that index ([None] = trace ended). *)

val delays : t -> ((int * int * string) * float option list) list
(** Per [(src, dst, tag)] link, the observed message delays in send order —
    the replay table consumed by {!Validator.replay_delays}.  Delays are
    reconstructed as (arrival time - send time) by matching sends with
    arrivals ([Deliver] or [Lost]) per link in FIFO order; sends dropped at
    send time appear as [None], keeping positions aligned with sender-side
    sequence numbers so replay stays exact under dropping attackers and
    chaos schedules. *)

val decisions : t -> (int * string list) list
(** Per node, the decided values in decision order. *)

val pp_entry : Format.formatter -> entry -> unit

val dump : Format.formatter -> t -> unit

val kind_to_string : kind -> string
