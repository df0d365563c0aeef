(** Execution traces (paper §III-A6).

    A trace is the ordered sequence of observable simulation events — sends,
    deliveries, drops, timer firings and decisions — plus, beside it, the
    delay each message entered the event queue with.  The validator module
    replays those delays and compares traces; tests use them to assert
    event-level behaviour; the CLI can dump them for inspection. *)

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

val record_delay : t -> id:int -> float -> unit
(** [record_delay t ~id d]: message [id] entered the event queue to arrive
    [d] ms after its send.  Kept apart from the entries, so {!equal} and
    {!first_divergence} do not see it. *)

val delay : t -> int -> float option
(** The final delay of message [id] — recorded after every stage that sets
    it (sample, CPU charge, chaos spike, attacker, reorder), so replay
    needs no pairing of sends with arrivals; [None] if it never entered
    the queue.  {!Validator.validate_against} replays these. *)

val delays : t -> (int * float) list
(** Every recorded [(id, delay)], by id. *)

val decisions : t -> (int * string list) list
(** Per node, the decided values in decision order. *)

val pp_entry : Format.formatter -> entry -> unit

val dump : Format.formatter -> t -> unit
