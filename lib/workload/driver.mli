(** Workload driver (DESIGN.md §3.16): open- or closed-loop clients feeding
    a bounded mempool, leader-side batching through each node's decorated
    context ([Controller.create]'s [?context]), and offered-rate sweeps into a throughput-latency
    curve.

    End-to-end request latency is measured from client arrival to the
    commit ack quorum: a request counts as committed when [f + 1] distinct
    replicas have decided the batch that contains it.  Batches whose leader
    continuation fired stale (the view moved on) are re-queued into the
    mempool rather than dropped, so churny runs measure true goodput.

    Determinism: the harness draws arrivals from a private RNG derived
    from the config seed (never from the controller's split chain), sweep
    points are independent runs aggregated in offered-rate order, and
    journaled points round-trip through {!Bftsim_obs.Json} — so the curve
    is byte-identical at any [--jobs] and across [--resume]. *)

type clients =
  | Open_loop  (** Arrivals from the {!Arrival} process; the default. *)
  | Closed_loop of { cap : int }
      (** A fixed client population, each keeping up to [cap] requests in
          flight with zero think time; the sweep variable is the population
          size (so [rate] is a client count, not req/s). *)

val clients_of_string : string -> (clients, string) result

type t
(** A workload description: client mode, arrival process shape, batching
    policy, mempool capacity, request-key distribution.  The sweep re-rates
    the arrival process (or re-sizes the closed-loop population) per
    point. *)

val make :
  ?arrival:Arrival.t ->
  ?policy:Batch.policy ->
  ?mempool_capacity:int ->
  ?clients:clients ->
  ?keys:Keys.t ->
  unit ->
  t
(** Defaults: open-loop Poisson arrivals (the rate is overridden per sweep
    point), {!Batch.default} batching, a 4096-request pool, unkeyed
    requests.  Closed loops raise the pool bound to the population's
    in-flight total — admission control on a self-limiting load would only
    deadlock clients. *)

val describe : t -> string

type point = {
  rate : float;  (** Offered rate (req/s), or the closed-loop population. *)
  outcome : string;  (** [Journal.outcome_class] of the underlying run. *)
  duration_ms : float;  (** Simulated time the run took. *)
  submitted : int;
  committed : int;  (** Requests that reached the ack quorum. *)
  dropped : int;  (** Rejected by the mempool bound. *)
  requeued : int;
      (** Re-queue events after stale leader continuations (a request
          re-queued twice counts twice). *)
  in_flight : int;  (** In uncommitted batches when the run ended. *)
  pending : int;  (** Still in the mempool when the run ended. *)
  key_conflicts : int;
      (** Adjacent committed pairs with equal keys; [0] for unkeyed runs. *)
  mempool_peak : int;
  batches : int;  (** Non-empty batch chunks cut (re-cuts count again). *)
  empty_batches : int;  (** Heights that proposed the no-op default. *)
  occupancy_mean : float;  (** Mean requests per cut (empty cuts count). *)
  throughput : float;  (** Committed req/s of simulated time. *)
  latency : Bftsim_core.Stats.t option;
      (** Arrival-to-commit latency (ms); [None] when nothing committed. *)
}

val run_point :
  t -> rate:float -> Bftsim_core.Config.t -> point * Bftsim_obs.Metrics.t option
(** One run at one offered rate.  The config's [decisions_target] bounds
    the heights driven; the returned registry (when telemetry is on) has
    the [wl.*] cells injected next to the controller's own. *)

type audit = {
  committed_ids : int list;  (** In commit order. *)
  requeued_ids : (int * int) list;  (** (id, times re-queued), sorted by id. *)
  pending_ids : int list;  (** Left in the pool at run end, service order. *)
  in_flight_ids : int list;  (** In uncommitted batches at run end, sorted. *)
  batch_log : (string * int list) list;
      (** Every bundle value ever cut with its request ids, oldest first —
          the join key against per-node decision logs. *)
}
(** Request-level accounting for the differential tests: every submitted id
    is exactly one of committed / dropped / pending / in-flight, and
    re-queues never lose or duplicate an id. *)

val run_point_audit :
  t -> rate:float -> Bftsim_core.Config.t -> point * audit * Bftsim_core.Controller.result
(** {!run_point} plus the id-level audit and the raw controller result
    (whose [decisions] are the per-node consensus logs to diff against). *)

type curve = {
  points : point list;  (** In offered-rate order (the input order). *)
  metrics : Bftsim_obs.Metrics.t option;
      (** Deterministic rate-order merge across points. *)
  resumed : int;  (** Points loaded from the journal instead of run. *)
}

val fingerprint : t -> Bftsim_core.Config.t -> rates:float list -> string
(** Campaign fingerprint for the journal (covers workload shape, rates and
    the base config). *)

val sweep :
  ?jobs:int ->
  ?journal:Bftsim_core.Journal.t ->
  ?resumed:Bftsim_core.Journal.event list ->
  t ->
  Bftsim_core.Config.t ->
  rates:float list ->
  curve
(** Runs one point per rate through [Bftsim_core.Runner.campaign_map]
    (fanned across [jobs] domains, unsupervised: a point that raises sinks
    the sweep), journaling each completed point, with its registry, as a
    {!Bftsim_core.Journal.Done} record indexed by its position in [rates]
    (the cell is the workload shape over [config]), and skipping points
    already present in [resumed].  Output is identical whatever [jobs], and a resumed sweep's
    curve is byte-identical to an uninterrupted one. *)

val knee : point list -> point option
(** The point with the highest committed throughput — the saturation knee
    of an open-loop sweep. *)

val point_to_json : point -> Bftsim_obs.Json.t
val point_of_json : Bftsim_obs.Json.t -> (point, string) result
val curve_to_json : curve -> Bftsim_obs.Json.t

val header : string
(** CSV column names for {!row}. *)

val row : point -> string

val pp_curve : Format.formatter -> curve -> unit
(** Human table plus the saturation line; deterministic. *)
