(** Imperative 4-ary min-heap with deterministic tie-breaking.

    The event queue of the simulator (paper §III-A2) must pop events in
    timestamp order; events carrying the same timestamp must come out in the
    order they were pushed, otherwise two runs with the same seed could
    interleave simultaneous deliveries differently and traces would not be
    reproducible.  The heap therefore keys entries on the pair
    [(priority, sequence-number)] where the sequence number is a
    monotonically increasing insertion counter.

    Representation (DESIGN.md §3.15): the heap lives in three flat lanes —
    an unboxed float array of priorities, an int array of sequence numbers
    and a uniform payload array — so pushes and pops move words between
    arrays instead of allocating boxed entries.  Each slot has four
    children, adjacent in every lane, which halves the depth a binary heap
    would have.  Because [(priority, sequence)] is a strict total order, the
    pop sequence does not depend on the heap's shape.  {!min_priority} and
    {!pop_exn} expose the hot path without the option/tuple boxing of
    {!pop}. *)

type 'a t
(** A mutable priority queue holding values of type ['a]. *)

val create : ?initial_capacity:int -> unit -> 'a t
(** [create ()] is a fresh empty queue. *)

val length : 'a t -> int
(** Number of queued entries. *)

val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> 'a -> unit
(** [push q ~priority v] inserts [v].  Entries with smaller [priority] pop
    first; equal priorities pop in insertion order. *)

val reserve_seq : 'a t -> int
(** [reserve_seq q] takes the next insertion sequence number without
    pushing anything: the caller keeps an entry in a queue of its own,
    ordered against [q]'s as if it had been pushed now. *)

val min_precedes : 'a t -> float array -> int -> seq:int -> bool
(** [min_precedes q lane i ~seq] holds when the minimum entry of [q] pops
    before an entry keyed by priority [lane.(i)] and sequence number [seq]
    (taken with {!reserve_seq}), and is false when [q] is empty.  Reading
    the priority from a float lane keeps the hot path free of boxed
    floats. *)

val pop : 'a t -> (float * 'a) option
(** [pop q] removes and returns the minimum entry, or [None] if empty. *)

val min_priority : 'a t -> float
(** Priority of the minimum entry, without boxing it in an option.
    @raise Invalid_argument if the queue is empty. *)

val pop_exn : 'a t -> 'a
(** [pop_exn q] removes the minimum entry and returns its payload alone —
    the allocation-free spelling of {!pop} for the event loop (read the
    timestamp first with {!min_priority}).  The vacated slot is cleared so
    the heap never retains popped payloads.
    @raise Invalid_argument if the queue is empty. *)

val peek : 'a t -> (float * 'a) option
(** [peek q] is the minimum entry without removing it. *)

val clear : 'a t -> unit
(** Removes every entry and drops every reference the heap held to the
    queued payloads (capacity is retained). *)

val to_sorted_list : 'a t -> (float * 'a) list
(** [to_sorted_list q] is a non-destructive snapshot of the queue contents in
    pop order.  Intended for tests and debugging; costs O(n log n). *)
