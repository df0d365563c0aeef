(** Protocol-conformance oracles.

    The validator (paper §III-A6) answers "is this run {e reproducible}?";
    these oracles answer "is this run {e correct}?".  Each inspects one
    completed {!Bftsim_core.Controller.result} — independently of the
    engine's own safety bookkeeping — and returns the violations it finds:

    - {b agreement}: no two honest index-aligned nodes decide different
      values at the same decision index;
    - {b validity}: for protocols that decide input-derived values, every
      decision derives from some proposed input;
    - {b integrity} (decide-once): the decision table is well-formed — no
      duplicate node rows, nothing decided by config-crashed nodes, no node
      past the decision target;
    - {b qc-sanity}: the quorum arithmetic the protocols share guarantees
      intersection in an honest node ([2q - n > f]) — the oracle that
      catches the injected [Quorum_minus_one] mutation;
    - {b online-*}: violations the in-run {!Bftsim_core.Invariant} monitors
      flagged (agreement / validity / crashed-decide evaluated at decision
      instant), surfaced through the same verdict type;
    - {b trace-consistency}: when a replay trace was recorded, the decisions
      it contains must match the result's decision table, and agreement must
      hold over the trace's view of the run too. *)

open Bftsim_core

type verdict = { oracle : string; detail : string }

val describe : verdict -> string

val value_deciding : string list
(** Protocols whose decided values derive verbatim from proposed inputs
    (chained protocols decide block digests; async-ba hashes inputs to a
    bit and gets a binary-validity check instead). *)

val agreement : Config.t -> Controller.result -> verdict list

val validity : Config.t -> Controller.result -> verdict list

val integrity : Config.t -> Controller.result -> verdict list

val qc_sanity : n:int -> verdict list
(** Pure arithmetic check of {!Bftsim_protocols.Quorum} for this [n];
    independent of any run, evaluated once per scenario. *)

val recovery : ?view_slack:int -> Config.t -> Controller.result -> verdict list
(** Crash-recovery oracle, active only when the chaos plan contains
    [restart@] steps: every restarted node must (a) never commit a value
    conflicting with the reference log (the longest log among aligned
    nodes) at a shared decision index — catch-up must replay history, not
    rewrite it — and (b) finish within [view_slack] (default 4) views of
    the aligned maximum, i.e. actually rejoin.  Protocols that rejoin from
    scratch (no recovery story) trivially satisfy (a) by re-deciding the
    same one-shot value and (b) because the network's views stay small. *)

val check_result : Config.t -> Controller.result -> verdict list
(** All of the above, concatenated in a deterministic order. *)
