(** The controller (paper §III-A1): wires all modules together and runs one
    simulation.

    It initializes the network, attacker and consensus nodes from a
    {!Config.t}, owns the event queue, dispatches message and time events to
    their modules, advances the simulation clock, and finally computes the
    performance metrics (time usage and message usage, §II-C). *)

type outcome =
  | Reached_target  (** Every counted honest node hit the decision target. *)
  | Timed_out  (** The simulated-time cap elapsed first: a liveness failure. *)
  | Event_cap  (** The event budget ran out (runaway guard). *)
  | Queue_drained  (** No events left — the protocol went silent. *)
  | Stalled of { last_progress_ms : float }
      (** The liveness watchdog fired: no counted node decided for
          [watchdog * lambda_ms] (and no scheduled chaos step explained the
          silence).  [last_progress_ms] is the last decision's timestamp
          (0 if nothing was ever decided); the rest of the result still
          carries the partial metrics accumulated up to the abort. *)

type result = {
  config : Config.t;
  outcome : outcome;
  time_ms : float;
      (** Simulation time when the run ended (target reached or cap hit). *)
  messages_sent : int;  (** Honest wire messages (§II-C message usage). *)
  bytes_sent : int;
  messages_dropped : int;
      (** Dropped by the attacker or the loss model, or lost at a down node. *)
  events_processed : int;
  decisions : (int * string list) list;
      (** Per node, in decision order, keyed by {e logical} id.  Under a
          twins configuration a twinned identity contributes one row per
          physical half (same key twice); everywhere else keys are unique. *)
  safety_ok : bool;
      (** Agreement: for every decision index, all counted honest nodes that
          reached it decided the same value. *)
  safety_violation : string option;  (** The online agreement monitor's first finding. *)
  violations : Invariant.violation list;
      (** Everything the online monitors flagged (agreement, validity,
          crashed-decide), in detection order with timestamps. *)
  corrupted : int list;  (** Nodes adaptively corrupted during the run. *)
  per_decision_latency_ms : float;  (** [time_ms / decisions_target]. *)
  per_decision_messages : float;
  final_views : int array;
      (** Each node's view/round/period when the run ended (-1 = crashed) —
          the protocol's round complexity for this run (paper §II-C notes
          the simulator supports round complexity alongside time usage).
          Indexed by physical id ([Config.physical_n] entries; identical to
          logical ids without twins). *)
  view_samples : (float * int array) list;
      (** (time, view of each node; -1 = crashed), when sampling is on. *)
  trace : Trace.t option;
  metrics : Bftsim_obs.Metrics.t option;
      (** Telemetry registry (counters/gauges/histograms of simulated
          quantities) when [config.telemetry.metrics]; merged across
          replications by [Runner.run_many]. *)
  spans : Bftsim_obs.Tracer.t option;
      (** Ring buffer of typed spans/instants when
          [config.telemetry.tracing]; export with [Bftsim_obs.Exporter].
          Named [spans] because [trace] is the replay/validation event
          log, a different artifact. *)
}

type workload_env = {
  wl_now_ms : unit -> float;  (** Current simulation time. *)
  wl_schedule : delay_ms:float -> (unit -> unit) -> unit;
      (** Deterministic one-shot callback on the simulation clock; the
          workload harness uses it for client arrivals and batch-wait
          timers.  Fires through the ordinary event queue, so workload
          events interleave reproducibly with protocol events. *)
}
(** Capabilities handed to a workload harness at run start. *)

type workload = {
  on_workload_start : workload_env -> unit;
      (** Called after the attacker starts but before any node's
          [on_start] — a leader's first proposal request must already find
          the harness listening. *)
  on_request_proposal :
    node:int ->
    slot:int ->
    width:int ->
    default:Bftsim_protocols.Context.proposal ->
    (Bftsim_protocols.Context.proposal -> bool) ->
    unit;
      (** A leader asks for the payload of [slot] (physical [node]),
          covering [width] consensus slots — chained protocols pack their
          whole pipeline window into one block, slot-windowed protocols
          pass [1] per slot.  The harness may call the continuation
          immediately (pass-through) or defer it until a request batch is
          cut; the protocol's continuation re-checks staleness itself and
          returns whether the proposal was used, [false] signalling the
          harness to re-queue the batch rather than drop it. *)
  on_commit : node:int -> index:int -> value:string -> at_ms:float -> unit;
      (** Every decide by every physical node in simulation order — the
          commit-ack stream from which end-to-end request latency
          (arrival to commit quorum) is measured. *)
}
(** Workload hooks (DESIGN.md §3.16).  Passed to {!run} as an optional
    argument — like [?attacker], not part of {!Config.t}, because the hooks
    close over harness state and configs must stay serializable.  When
    absent, every hook site degenerates to the pre-workload behavior and
    runs are bit-identical to older builds. *)

val run :
  ?cancel:(unit -> bool) ->
  ?delay_override:(int -> float option) ->
  ?attacker:Bftsim_attack.Attacker.t ->
  ?workload:workload ->
  Config.t ->
  result
(** Runs one simulation to completion.  [cancel] is polled in the event
    loop (next to the [max_events] and watchdog checks); once it reports
    [true] the run raises [Supervisor.Cancelled] between events — the
    cooperative wall-clock deadline of the supervision layer (DESIGN.md
    §3.13).  Completed runs are never perturbed by it, so determinism
    holds.  [delay_override] maps a message id to the delay that message
    enters the event queue with, replacing the one the stack computed when
    it returns [Some _] — the replay mechanism of the validator module.
    Every message (wire send, duplicate, reliable frame or ack, gossip hop,
    attacker injection) enters the queue at one point, after every stage
    that sets its delay.  [attacker] overrides the
    attacker derived from the config, the hook for user-written attack
    scenarios (paper §III-A5).

    The [BFTSIM_FAULT_INJECT] environment variable (e.g.
    ["crash@17;hang@23"]) makes the run with base seed 17 raise at startup
    and the one with seed 23 spin on the wall clock until cancelled — the
    test knob behind the resilience suite and the CI kill-and-resume
    job. *)

val throughput : result -> float
(** Decided values per simulated second ([decisions_target / time]); the
    quantity the computation-cost extension (§III-A3) makes meaningful. *)

val wall_clock_of_run : Config.t -> float * result
(** [wall_clock_of_run config] measures the host time one simulation takes
    (seconds) — the quantity compared against the packet-level baseline in
    Fig. 2. *)

val pp_outcome : Format.formatter -> outcome -> unit
