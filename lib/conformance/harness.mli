(** The conformance harness: generate → run → judge → shrink → persist.

    One {!check_config} call runs a configuration (trace recording on),
    evaluates every {!Oracle} on the result, adds a {e liveness} verdict
    when a run expected to terminate did not, and — unless disabled — a
    {e determinism} verdict from {!Bftsim_core.Validator.check_determinism}
    (so each scenario costs up to three simulations).

    {!fuzz} drives a whole batch: scenarios are drawn by {!Scenario.sample}
    from a seed, checked in parallel across the domain pool, and each
    failure is shrunk with {!Shrink.minimize} and optionally persisted as a
    replayable {!Bundle}. *)

open Bftsim_core

type failure = {
  scenario : Scenario.t;  (** As generated. *)
  verdicts : Oracle.verdict list;  (** Verdicts against the original config. *)
  shrunk : Config.t;  (** Minimized failing config (= original if unshrinkable). *)
  shrunk_verdicts : Oracle.verdict list;
  shrunk_result : Controller.result;
  shrink_attempts : int;  (** Predicate evaluations the shrinker spent. *)
  bundle : string option;  (** Bundle directory, when one was written. *)
}

type report = {
  scenarios : int;
  checks : int;
  failures : failure list;
  crashed : (int * string) list;
      (** Scenario checks the supervisor gave up on (index, diagnosis) —
          crashes, deadline overruns, quarantines.  Deterministic across
          resume: crashed checks are never journaled, so they re-run. *)
  resumed : int;  (** Checks skipped because the journal recorded a pass. *)
}

val ok : report -> bool
(** No oracle failures {e and} no crashed checks. *)

val check_config :
  ?determinism:bool ->
  ?expect_live:bool ->
  ?cancel:(unit -> bool) ->
  Config.t ->
  Oracle.verdict list * Controller.result
(** Run one configuration and judge it.  [determinism] (default [true])
    additionally replays the config twice through the validator;
    [expect_live] (default [true]) turns a non-[Reached_target] outcome
    into a verdict.  [cancel] is threaded to the main [Controller.run] —
    the supervision layer's cooperative deadline. *)

val campaign_cell : ?mode:string -> Scenario.t list -> string
(** Journal cell (and campaign fingerprint) of a fuzzing batch: a stable
    hash over the scenarios' configurations.
    [mode] (default ["conform"]) namespaces the fingerprint, so a twins
    campaign's journal is never mistaken for a conformance one's. *)

val fuzz_scenarios :
  ?mode:string ->
  ?jobs:int ->
  ?determinism:bool ->
  ?shrink:bool ->
  ?shrink_budget:int ->
  ?bundle_dir:string ->
  ?policy:Supervisor.policy ->
  ?journal:Journal.t ->
  ?resumed:Journal.event list ->
  seed:int ->
  Scenario.t list ->
  report
(** Check an explicitly supplied scenario list through the full
    supervise → judge → shrink → bundle pipeline.  This is the engine
    under {!fuzz}; callers with their own scenario source (the twins
    enumerator) use it directly.  [mode] namespaces the journal cell.
    The checks run through [Runner.campaign_map] with key ["scenario"]: a
    passed check is journaled as a [Done] record with a [null] body, and
    a failing one is not journaled, so a resume re-runs it. *)

val fuzz :
  ?protocols:string list ->
  ?families:Scenario.family list ->
  ?jobs:int ->
  ?determinism:bool ->
  ?shrink:bool ->
  ?shrink_budget:int ->
  ?bundle_dir:string ->
  ?policy:Supervisor.policy ->
  ?journal:Journal.t ->
  ?resumed:Journal.event list ->
  budget:int ->
  seed:int ->
  unit ->
  report
(** [fuzz ~budget ~seed ()] draws and checks [budget] scenarios.  Scenario
    checks fan out over [jobs] domains ({!Bftsim_core.Parallel.map}
    defaults) under a [Supervisor] ([policy] defaults to
    [Supervisor.default_policy] with this campaign's [seed]): a crashing
    or deadline-overrunning check lands in [report.crashed] instead of
    sinking the campaign.  Shrinking and bundle writing happen
    sequentially afterwards.  [bundle_dir] enables counterexample
    persistence.

    [journal] records every {e passed} check (and every failed supervised
    attempt) as it happens; [resumed] takes the loaded events of a prior
    journal and skips the recorded passes.  Failing and crashing scenarios
    are deliberately not journaled — a resumed campaign re-examines them,
    so its report is identical to an uninterrupted run's. *)

val pp_report : Format.formatter -> report -> unit
