(** Domain-pool parallel map for independent simulation runs.

    {!Controller.run} is domain-safe (per-run state is confined to the run;
    the only cross-cutting hooks — the {!Bftsim_sim.Simlog} clock and the
    HotStuff+NS pacemaker-reset policy — are domain-local and configuration
    fields respectively), so independent replications can fan out across a
    fixed-size pool of OCaml 5 domains.  Determinism is preserved: results
    are keyed by input index and reassembled in input order, so aggregation
    sees the identical sequence the sequential path produces. *)

val default_jobs : unit -> int
(** Pool size used when [?jobs] is omitted:
    [Domain.recommended_domain_count () - 1] (at least 1, leaving one core
    for the coordinating domain), overridden by the [BFTSIM_JOBS]
    environment variable when it parses as a positive integer. *)

val tune_gc : unit -> unit
(** Grows the current domain's minor heap to the simulation profile
    (16 MiB) if it is smaller.  Event-loop garbage is short-lived, so a
    large minor heap makes collections rare — and, under a domain pool,
    divides the number of stop-the-world synchronizations by the same
    factor.  When it grows the heap it also touches every page of it once
    (~10 ms), so the process's resident memory holds the whole minor heap
    from the start rather than however much of it the first collections
    happened to reach, and lowers the major heap's space overhead to 80
    (OCaml's default is 120), which keeps a run's unswept garbage, and so
    its peak memory, small and steady.  Entry points (CLI, bench) call it
    at startup; {!map} grows, without touching, the heap of every spawned
    worker.  Never shrinks a heap the user already grew via
    [OCAMLRUNPARAM]. *)

val map : ?jobs:int -> ?chunk:int -> ?oversubscribe:bool -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs] computed by up to [jobs] workers (the
    caller participates as one worker; at most [jobs - 1] are spawned,
    never more than there are chunks, and — because OCaml 5 minor GCs
    synchronize every running domain, making oversubscription strictly
    slower — never more than the hardware supports
    ([Domain.recommended_domain_count () - 1]); pass
    [~oversubscribe:true] to lift that last cap, e.g. to exercise true
    multi-domain interleavings on a small machine).  Workers claim [chunk]
    consecutive indices at a time from a shared atomic queue; by default
    [chunk] targets ~8 claims per worker (at least 1).  [f] must be
    domain-safe for the elements it receives.  Output order equals input
    order regardless of [jobs], [chunk] and the pool size actually used.
    If any application of [f] raises, the first exception (by completion
    time) is re-raised in the caller after all workers have stopped.
    @raise Invalid_argument if [jobs < 1] or [chunk < 1]. *)
