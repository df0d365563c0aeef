(** Growable bitset over small non-negative integers.

    Built for the controller's timer bookkeeping and the protocols' vote
    tallies (DESIGN.md §3.15): timer ids are issued sequentially and voters
    are logical node ids, so membership is one bit per id in a flat byte
    array — no per-operation allocation, unlike the hashtables it replaced.
    Memory is one bit per id up to the largest ever {!add}ed. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** Fresh empty set, pre-sized for keys below [initial_capacity]
    (default 256); the set grows on demand beyond it. *)

val add : t -> int -> unit
(** [add t i] inserts [i], growing the set if needed.
    @raise Invalid_argument if [i] is negative. *)

val mem : t -> int -> bool
(** Membership; [false] for negative or never-inserted keys. *)

val remove : t -> int -> unit
(** Removes [i]; a no-op when absent or negative. *)

val cardinal : t -> int
(** Number of members; linear in the capacity. *)

val elements : t -> int list
(** Members in ascending order; linear in the capacity. *)
