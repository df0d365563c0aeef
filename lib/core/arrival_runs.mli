(** The arrival calendar: every in-flight delivery, bucketed by arrival time
    (DESIGN.md §3.15).

    {!add} gives a delivery the sequence number the event queue would have
    given it at that moment and appends it to the bucket of its arrival
    time.  A delivery is an envelope, shared by every recipient of a
    broadcast, plus its destination and message id; the buckets hold its
    arrival, sequence number, envelope number, destination and id in
    unboxed lanes.  {!next_exn} sorts a bucket by (arrival, seq) once, when
    the clock reaches it, and pops whichever comes first: the event queue's
    next event, or the next delivery.  The pop order is exactly the
    (time, seq) order of scheduling every delivery as an event of its own,
    so the calendar changes no result. *)

open Bftsim_sim
open Bftsim_net

type 'e t
(** The buckets, the envelope table and a heap of late deliveries, merged
    with one event queue. *)

val create : 'e Event_queue.t -> arrival:'e -> 'e t
(** [create queue ~arrival] merges deliveries with [queue]; {!next_exn}
    returns [arrival] when it pops a delivery. *)

val add : 'e t -> Message.t -> dst:int -> id:int -> delay_ms:float -> unit
(** [add t msg ~dst ~id ~delay_ms] schedules the delivery of [msg] to
    [dst], message [id], for [delay_ms] after [msg]'s send instant. *)

val is_empty : 'e t -> bool
(** Nothing is left to pop, in the queue or in the calendar. *)

val next_exn : 'e t -> 'e
(** Pops the earliest event like {!Event_queue.next_exn}: an event of the
    queue, or [arrival] for the delivery {!current} returns.
    @raise Invalid_argument if the earliest delivery is scheduled in the
    past, or if nothing is left to pop. *)

val current : 'e t -> Message.t
(** The envelope of the delivery {!next_exn} popped last, until the next
    {!next_exn}. *)

val current_dst : 'e t -> int
(** Its destination. *)

val current_id : 'e t -> int
(** Its message id. *)

val pending : 'e t -> int
(** Events left to pop: the queue's, and every undelivered message. *)
