(** Crash isolation, wall-clock deadlines, deterministic retry and
    quarantine for campaign tasks (DESIGN.md §3.13).

    [Parallel.map] re-raises the first worker exception and discards every
    run in flight, and the only runaway guard below this layer is the
    {e sim-time} watchdog — one pathological replication can sink a
    thousand-cell campaign.  A supervisor turns each task into a structured
    {!outcome} instead: exceptions are caught with their backtrace, a
    per-attempt wall-clock deadline is enforced {e cooperatively} (the task
    receives a [cancel] polling function and the controller checks it in
    its event loop, next to [max_events] and the watchdog — completed runs
    are never perturbed, so determinism holds), failed attempts are retried
    on a bounded, seed-derived jitter schedule, and keys that keep failing
    are quarantined so they cannot eat the whole retry budget.

    A supervisor is shared by every worker of a campaign: recording is
    mutex-protected, the supervised task itself runs outside the lock. *)

exception Cancelled
(** Raised by cooperative cancellation points (e.g. the controller's event
    loop) when the supervisor's [cancel] function reports the deadline
    passed.  Tasks may also keep polling and return normally — a completed
    result is kept even if it finished over the deadline. *)

val inject_faults : cancel:(unit -> bool) -> seed:int -> unit
(** The test knob behind the resilience suite and the CI kill-and-resume
    job, checked by [Controller.run] at startup: [BFTSIM_FAULT_INJECT]
    (e.g. ["crash@17;hang@23"]) makes the run seeded 17 raise, and the one
    seeded 23 spin on the wall clock until [cancel] reports [true], then
    raise {!Cancelled}. *)

type policy = {
  deadline_ms : float option;  (** Per-attempt wall-clock budget; [None] = unbounded. *)
  max_retries : int;  (** Additional attempts after the first failure. *)
  quarantine_after : int;
      (** Failures of one key before it is quarantined (remaining retries
          are skipped and later [supervise] calls short-circuit). *)
  retry_base_ms : float;
      (** Base of the backoff schedule ({!retry_delay_ms}); [0.] retries
          immediately — the right setting for deterministic tests. *)
  seed : int;  (** Seeds the jitter schedule; campaign seed by convention. *)
}

val default_policy : policy
(** {!Config.default_supervision} with seed [0]: no deadline, one retry,
    quarantine after 3 failures, no backoff. *)

val policy_of_config : Config.t -> policy
(** The per-run supervision knobs of a configuration ({!Config.supervision})
    plus its seed, as a policy. *)

val retry_delay_ms : policy -> key:string -> attempt:int -> float
(** Backoff before retry [attempt] (1-based) of [key]:
    [retry_base_ms * 2^(attempt-1) * (0.5 + u)] where [u ∈ \[0, 1)] is
    derived from SHA-256 of [(seed, key, attempt)] — a pure function, so
    every re-execution of a campaign sleeps the same schedule. *)

type failure_kind = Crash of { exn : string; backtrace : string } | Deadline

type 'a outcome =
  | Ok of 'a
  | Crashed of { exn : string; backtrace : string; retries : int }
      (** Every attempt raised; the texts are from the last attempt. *)
  | Deadline_exceeded of { wall_ms : float; retries : int }
      (** Every attempt overran its wall-clock budget. *)
  | Quarantined of { failures : int }
      (** The key was already quarantined when [supervise] was called. *)

type stats = {
  runs_ok : int;
  runs_crashed : int;  (** Attempts that raised (retries count). *)
  runs_timed_out : int;  (** Attempts that overran the deadline. *)
  runs_retried : int;  (** Retry attempts started. *)
}

type t

val create : ?policy:policy -> unit -> t

val supervise :
  t ->
  key:string ->
  ?on_failure:(attempt:int -> wall_ms:float -> failure_kind -> unit) ->
  (cancel:(unit -> bool) -> 'a) ->
  'a outcome
(** Run one task under supervision.  [on_failure] observes every failed
    attempt of this task (the journaling hook); it is called under the
    supervisor lock, after the failure was logged through [Simlog.err]
    with its backtrace.  [cancel] is cheap to poll (it reads
    the wall clock only every few dozen polls) and flips to [true] once the
    attempt's deadline has passed; cancellation points raise {!Cancelled}.
    Any exception out of the task is classified: deadline observed →
    {!Deadline_exceeded}, otherwise {!Crashed} (with
    [Printexc] backtrace).  Never raises. *)

val stats : t -> stats
(** Snapshot of the counters (thread-safe). *)

val quarantined : t -> (string * int) list
(** Quarantined keys with their failure counts, sorted by key. *)

val export_metrics : t -> Bftsim_obs.Metrics.t -> unit
(** Write the counters into a registry as [supervisor.runs_ok],
    [supervisor.runs_crashed], [supervisor.runs_timed_out] and
    [supervisor.runs_retried] (always present, so summaries with and
    without failures stay structurally identical). *)
