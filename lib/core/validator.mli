(** The validator module (paper §III-A6, §III-D).

    Cross-validates a simulation against a ground-truth execution: the
    ground truth supplies each message's delay, keyed by message id, the
    validator replays those delays through the simulator and checks that
    the consensus module "produces the same result (i.e., which node agrees
    on what value)" and, with traces on both sides, the same trace.

    The paper validated against BFTsim traces; those are not available, so
    the ground truth here comes from (a) a previous run of this simulator
    (replay determinism) and (b) the independent packet-level baseline
    simulator (cross-implementation agreement) — see DESIGN.md §4. *)

type report = {
  decisions_match : bool;
  trace_match : bool option;  (** [None] when either side lacks a trace. *)
  divergence : string option;  (** Human-readable first difference. *)
}

val same_decisions : Controller.result -> Controller.result -> bool
(** Agreement of the per-node decision sequences (order-sensitive). *)

val decisions_divergence : Controller.result -> Controller.result -> string option
(** Human-readable first per-node difference between the two decision
    tables, [None] when they agree.  Symmetric: a node that decided in only
    one of the runs — either one — is reported.  Twins-aware: a twinned
    identity's two physical halves are grouped under the one logical id and
    compared half-by-half, never attributed to a phantom extra node. *)

val validate_against : ground_truth:Controller.result -> Config.t -> report
(** Re-runs [config] with the ground truth's recorded delays as the
    [delay_override] ({!Trace.delay}, by message id) and compares decisions
    (and traces when both are recorded).  The replay samples a constant
    1 ms delay model instead of [config]'s, so it matches only if every
    delivery it queues takes its delay from the recording.
    @raise Invalid_argument if the ground truth carries no trace. *)

val check_determinism : Config.t -> report
(** Runs the configuration twice (same seed, traces on) and verifies the
    executions are identical — the reproducibility guarantee every other
    validation rests on. *)

val pp_report : Format.formatter -> report -> unit
