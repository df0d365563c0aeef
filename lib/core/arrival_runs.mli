(** The arrival calendar: every in-flight delivery, bucketed by arrival time
    (DESIGN.md §3.15).

    {!add} gives a delivery the sequence number the event queue would have
    given it at that moment and appends it to the bucket of its arrival
    time.  A delivery is an envelope, shared by every recipient of a
    broadcast, plus its destination; the buckets hold its arrival, sequence
    number and envelope slot with destination as one record of three
    unboxed floats.  {!next_exn} sorts a bucket by (arrival, seq) once,
    when the clock reaches it, and pops whichever comes first: the event
    queue's next event, or the next delivery.  The pop order is exactly the
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

val add : 'e t -> Message.t -> dst:int -> float array -> unit
(** [add t msg ~dst delay] schedules the delivery of [msg] to [dst] for
    [delay.(0)] ms after [msg]'s send instant.  The delay comes in a cell so
    that no float is boxed on its way from the draw.  A [dst] below 0 is
    kept as out of range: it pops, counts as an event, and {!current_dst}
    reads -1.
    @raise Invalid_argument if [dst] is at or past 2^26, if 2^26
    envelopes would be in flight, or if the queue's sequence numbers
    reach 2^53. *)

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
(** Its destination, or -1 when it was below 0. *)

val pending : 'e t -> int
(** Events left to pop: the queue's, and every undelivered message. *)
