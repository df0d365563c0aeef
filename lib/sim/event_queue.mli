(** Event queue with an attached simulation clock (paper §III-A2).

    All simulation progress flows through this structure: scheduling places a
    future event, and {!next} pops the earliest event while advancing the
    clock to its timestamp.  Scheduling into the past is a programming error
    and raises, which catches causality bugs in protocols early. *)

type 'a t

val create : unit -> 'a t
(** Fresh queue with the clock at {!Time.zero}. *)

val now : 'a t -> Time.t
(** Current simulation time — the timestamp of the last popped event. *)

val schedule : 'a t -> at:Time.t -> 'a -> unit
(** [schedule q ~at ev] enqueues [ev] for time [at].
    @raise Invalid_argument if [at] precedes [now q]. *)

val reserve_seq : 'a t -> int
(** Takes the tie-breaking sequence number an event scheduled now would
    get, for an event the caller keeps in a queue of its own (below). *)

(** {1 Merging a second queue}

    A caller may keep events of its own, keyed by [(ms, seq)] with
    sequence numbers from {!reserve_seq}, and pop them with this queue's
    as one: {!precedes} picks the queue to pop, and {!advance} stands in
    for {!next_exn} when the caller's event wins. *)

val precedes : 'a t -> float array -> int -> seq:int -> bool
(** [precedes q lane i ~seq] holds when [q]'s next event pops before the
    caller's event keyed by [lane.(i)] ms and [seq]; false when [q] is
    empty. *)

val advance : 'a t -> float array -> int -> bool
(** [advance q lane i] advances the clock to [lane.(i)] ms, the time of an
    event popped from the caller's queue, counts it in {!popped} and
    holds.  It is false, and changes nothing, when [lane.(i)] is earlier
    than the clock: the caller scheduled that event in the past. *)

val schedule_after : 'a t -> delay_ms:float -> 'a -> unit
(** [schedule_after q ~delay_ms ev] enqueues [ev] at [now + delay_ms];
    negative delays clamp to zero (deliver "immediately", i.e. at the current
    instant but after all earlier-queued simultaneous events). *)

val schedule_in : 'a t -> float array -> 'a -> unit
(** [schedule_in q delay ev] is [schedule_after q ~delay_ms:delay.(0) ev]
    with the delay in a cell, so that no float is boxed on its way from
    the caller's draw. *)

val next : 'a t -> (Time.t * 'a) option
(** Pops the earliest event and advances the clock to its timestamp. *)

val is_empty : 'a t -> bool

val next_exn : 'a t -> 'a
(** Allocation-free spelling of {!next} for the event loop: pops the
    earliest event, advances the clock, and returns the event alone — read
    the timestamp afterwards with {!now_ms}.
    @raise Invalid_argument if the queue is empty (guard with {!is_empty}). *)

val now_ms : 'a t -> float
(** [Time.to_ms (now q)] without going through the boxed {!Time.t}. *)

val past : 'a t -> float -> bool
(** [past q ms]: the clock is later than [ms].  The event loop's checks
    compare inside this module, as a float {!now_ms} returns across
    modules is boxed. *)

val overdue : 'a t -> since:float -> limit:float -> bool
(** [overdue q ~since ~limit]: more than [limit] ms have passed since
    [since] ([now_ms q -. since > limit]). *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the next event without popping. *)

val pending : 'a t -> int
(** Number of queued events. *)

val popped : 'a t -> int
(** Total number of events processed so far (a cheap progress metric and a
    guard counter against runaway simulations). *)
