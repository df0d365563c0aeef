(** Run fingerprints for golden regression tests.

    A fingerprint is the SHA-256 of a canonical textual rendering of a
    run's observable behaviour (outcome, timing, message counts, per-node
    decisions, final views) or of its full event trace.  The golden tests
    pin one fingerprint per protocol: an engine refactor that silently
    changes schedules — even while every safety property still holds —
    flips the fingerprint and fails loudly, turning "the simulation is a
    pure function of its seed" into an enforced regression contract. *)

open Bftsim_core

val canonical : Controller.result -> string
(** The exact string hashed — printed by tests on mismatch so the diff is
    inspectable. *)

val of_result : Controller.result -> string
(** 64-char lowercase hex. *)

val of_trace : Trace.t -> string
