(** Duplicate-safe vote counting.

    Every threshold rule in the protocols ("on receiving [2f+1] prepares for
    digest [d] …") needs a map from a vote key to the {e set} of distinct
    voters, because a faulty or retransmitting node must not be counted
    twice.  ['k] is the vote key — typically a [(view, phase, value)]
    tuple.

    Voters are logical node ids: non-negative and dense from 0, as
    [Message.src] is.  Each key's voter set is a bitset sized by the
    largest voter id seen, so memory per key is one bit per id. *)

type 'k t

val create : unit -> 'k t

val add : 'k t -> 'k -> voter:int -> int
(** [add t key ~voter] records the vote and returns the new number of
    distinct voters for [key].  Re-votes do not change the count.
    @raise Invalid_argument if [voter] is negative. *)

val count : 'k t -> 'k -> int
(** Number of distinct voters recorded for [key]; 0 if none. *)

val has_voted : 'k t -> 'k -> voter:int -> bool
(** Whether [voter] voted for [key]; [false] for a negative [voter]. *)

val voters : 'k t -> 'k -> int list
(** Ascending list of distinct voters for [key]. *)

val keys : 'k t -> 'k list
(** All keys with at least one vote, newest first: the reverse of the
    order in which each key received its first vote. *)

val max_count : 'k t -> ('k * int) option
(** The key with the most distinct voters; among equal counts, the key
    that received its first vote earliest.  [None] when no vote has been
    recorded. *)

val clear : 'k t -> unit
