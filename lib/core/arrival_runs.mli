(** Arrival runs: the deliveries scheduled while one event is handled, held
    as one sorted run with one entry in a heap of runs (DESIGN.md §3.15).

    {!add} puts a delivery into the open run and gives it the sequence
    number the event queue would have given it at that moment.  A delivery
    is an envelope, shared by every recipient of a broadcast, plus its
    destination and message id, kept in unboxed lanes.  {!next_exn} first
    seals the open run — sorts it by (arrival, seq) and enters it in the
    heap, keyed by its head — and then pops whichever comes first: the event
    queue's next event, or the head of the first run.  The pop order is
    exactly the (time, seq) order of scheduling every delivery as an event
    of its own, so runs change no result. *)

open Bftsim_sim
open Bftsim_net

type 'e t
(** The open run, the heap of sealed runs and a pool of spent runs, merged
    with one event queue. *)

val create : 'e Event_queue.t -> arrival:'e -> width:int -> 'e t
(** [create queue ~arrival ~width] merges runs with [queue]; {!next_exn}
    returns [arrival] when it pops a delivery.  A run's lanes start at
    [width] entries and double when full: pass the number of replicas, so
    one broadcast fits. *)

val add : 'e t -> Message.t -> dst:int -> id:int -> delay_ms:float -> unit
(** [add t msg ~dst ~id ~delay_ms] schedules the delivery of [msg] to
    [dst], message [id], for [delay_ms] after [msg]'s send instant, in the
    open run. *)

val is_empty : 'e t -> bool
(** Nothing is left to pop, in the queue or in any run. *)

val next_exn : 'e t -> 'e
(** Seals the open run, then pops the earliest event like
    {!Event_queue.next_exn}: an event of the queue, or [arrival] for the
    delivery {!current} returns.
    @raise Invalid_argument if the open run holds a delivery in the past,
    or if nothing is left to pop. *)

val current : 'e t -> Message.t
(** The envelope of the delivery {!next_exn} popped last. *)

val current_dst : 'e t -> int
(** Its destination. *)

val current_id : 'e t -> int
(** Its message id. *)

val pending : 'e t -> int
(** Events left to pop: the queue's, and every undelivered message. *)
