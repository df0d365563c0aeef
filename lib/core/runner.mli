(** Repetition harness: runs one configuration many times over distinct
    seeds under campaign supervision (DESIGN.md §3.13) and aggregates the
    paper's two metrics.

    Every replication runs under a [Supervisor] built from
    [config.supervision]: a crash or a wall-clock deadline overrun becomes
    a structured entry in {!summary.failures} instead of discarding the
    batch, failed attempts are retried on the deterministic backoff
    schedule, and — when a {!Journal} is attached — completed replications
    are recorded as digests so an interrupted campaign can resume. *)

type failure = {
  rep : int;
  kind : string;  (** ["crash"], ["deadline"] or ["quarantined"]. *)
  detail : string;  (** Exception text / wall time / failure count. *)
  retries : int;  (** Retries spent before giving up. *)
}

type summary = {
  config : Config.t;  (** The base configuration (seed of the first run). *)
  reps : int;  (** Requested replications. *)
  completed : int;  (** Replications that produced a digest. *)
  latency_ms : Stats.t;  (** Per-decision time usage across runs. *)
  messages : Stats.t;  (** Per-decision message usage across runs. *)
  liveness_failures : int;
      (** Runs that hit the time/event cap instead of the target.  Their
          capped values are {e included} in the statistics (they are real
          observations of slowness), and also reported here. *)
  safety_violations : int;  (** Should always be 0; counted defensively. *)
  metrics : Bftsim_obs.Metrics.t option;
      (** Per-run registries merged in seed order (counters sum, gauges keep
          the max, histograms add bucket-wise) when [config.telemetry.metrics]
          is on — bit-identical whatever [jobs] was, resumed or not (the
          merge always reads the digests' JSON encoding, which round-trips
          registries exactly). *)
  results : Controller.result list;
      (** Full per-run details for the replications {e this process}
          completed, first seed first — replications skipped via [~resumed]
          appear only in [digests].  Aggregation must read [digests]. *)
  digests : Journal.digest list;
      (** One digest per completed replication, in rep order — journaled
          and fresh alike; the source of every aggregate in this record. *)
  failures : failure list;  (** Replications given up on, in rep order. *)
  supervision : Supervisor.stats;
      (** Supervisor counters for {e this process} (ok / crashed /
          timed-out / retried attempts). *)
  resumed : int;  (** Replications skipped thanks to the journal. *)
}

val run_cancellable : ?cancel:(unit -> bool) -> Config.t -> Controller.result
(** [Controller.run] under supervision.  It first applies the test-only
    fault injection ({!Supervisor.inject_faults}), then steps the run and
    polls [cancel] (default: never) before every event; once [cancel]
    reports [true] it raises [Supervisor.Cancelled] between events — the
    cooperative wall-clock deadline of DESIGN.md §3.13.  Completed runs are
    never perturbed by it, so determinism holds. *)

type ('fresh, 'kept) slot =
  | Resumed of 'kept  (** Decoded from the journal; not run again. *)
  | Ran of 'fresh Supervisor.outcome
      (** Run by this process; always [Ok] when unsupervised. *)

val campaign_map :
  ?jobs:int ->
  ?journal:Journal.t ->
  ?resumed:Journal.event list ->
  ?supervisor:Supervisor.t ->
  cell:string ->
  key:string ->
  encode:('fresh -> Bftsim_obs.Json.t option) ->
  decode:(Bftsim_obs.Json.t -> ('kept, string) result) ->
  (cancel:(unit -> bool) -> 'a -> 'fresh) ->
  'a list ->
  ('fresh, 'kept) slot list
(** The journaled campaign loop under {!run_many}, the load driver and the
    conformance harness.  [campaign_map ~cell ~key ~encode ~decode run
    items] is one slot per item, in input order:
    - an item whose index has a {!Journal.Done} record for [cell] in
      [resumed] (first record wins) that [decode] accepts is [Resumed] and
      not run;
    - every other item runs across [jobs] domains ({!Parallel.map}) and is
      [Ran].  Under [supervisor] it runs through [Supervisor.supervise]
      with key [key ^ index] (["rep3"]), and every failed attempt is
      journaled as a {!Journal.Failure} of its index; without one, [run]
      gets a [cancel] that never fires and an exception propagates as
      from {!Parallel.map}.

    With [journal], a finished item is appended from inside its worker as
    [Done { cell; index; body }] when [encode] gives [Some body]; [None]
    leaves it unjournaled, so a resume runs it again (how failing
    conformance checks are re-examined).  The slots are the same whatever
    [jobs] is. *)

val count_resumed : ('fresh, 'kept) slot list -> int
(** The [Resumed] slots: items skipped thanks to the journal. *)

val run_many :
  ?reps:int ->
  ?jobs:int ->
  ?journal:Journal.t ->
  ?resumed:Journal.event list ->
  Config.t ->
  summary
(** [run_many config] executes [reps] (default {!default_reps}) supervised
    simulations with seeds [config.seed, config.seed + 1, ...], fanned
    across [jobs] domains (default {!Parallel.default_jobs}; [~jobs:1]
    forces the sequential path).  The summary is bit-for-bit identical
    whatever [jobs] is: each replication is deterministic in its seed and
    digests are reassembled in seed order.

    The replications run through {!campaign_map} (key ["rep"], one digest
    per [Done] record): [~journal] appends each completed replication (and
    each failed attempt) as it happens — mutex-protected and flushed, so a
    SIGKILL loses at most the record in flight.  [~resumed] takes the
    events of a loaded journal: replications already recorded for this
    configuration's cell are skipped and their digests spliced back in at
    their rep index, reproducing the uninterrupted summary byte for
    byte.

    @raise Invalid_argument if [reps <= 0], or if {e every} replication
    failed (there is nothing to aggregate — the failure list is summarized
    in the message). *)

val default_reps : unit -> int
(** 20, overridable with the [BFTSIM_REPS] environment variable (the paper
    uses 100). *)

val pp_summary : Format.formatter -> summary -> unit
(** One line: protocol, latency, messages, then only-if-nonzero suffixes —
    [[n liveness failures]], [[n SAFETY VIOLATIONS]], [[n crashed]],
    [[n timed out]], [[n quarantined]]. *)
