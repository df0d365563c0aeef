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

type t
(** One run in progress.  A run is a value: {!create} builds it, {!step}
    advances it one event at a time and {!finish} reads its {!result}, so
    a caller can interleave its own work between events. *)

val create :
  ?delay_override:(int -> float option) ->
  ?attacker:Bftsim_attack.Attacker.t ->
  ?context:(Bftsim_protocols.Context.t -> Bftsim_protocols.Context.t) ->
  Config.t ->
  t
(** Builds the network, the attacker and the nodes of one run, and arms the
    chaos steps and the attacker's first alarms.  The nodes start at the
    first {!step}, so alarms the caller arms with {!schedule} before it
    run ahead of every node's [on_start].

    [delay_override] maps a message id to the delay that message enters
    the event queue with, replacing the one the stack computed when it
    returns [Some _] — the replay mechanism of the validator module.
    Every message (wire send, duplicate, reliable frame or ack, gossip hop,
    attacker injection) enters the queue at one point, after every stage
    that sets its delay.  [attacker] overrides the attacker derived from
    the config, the hook for user-written attack scenarios (paper
    §III-A5).  [context] decorates each node's context once, before the
    node is built: the client layer of DESIGN.md §3.16 wraps
    [request_proposal] and [decide] this way.  Without it a proposal
    request runs its continuation at once with the protocol's default. *)

val step : t -> bool
(** Handles the next event and returns whether the run goes on; [false]
    once the target is reached or a stop check fires (time or event cap,
    drained queue, watchdog), and on every later call.  Installs the run's
    [Simlog] hooks first when the domain holds another run's, so runs
    stepped in turn log with their own clocks.  Allocates nothing beyond
    what the handler does. *)

val finish : t -> result
(** The run's result.  A run stopped before [step] returned [false]
    reports {!Event_cap}; a run never stepped starts its nodes first. *)

val close : t -> unit
(** Releases the calling domain's [Simlog] hooks (the run's clock, and its
    mirror when tracing) if they are this run's.  {!finish} does it; a
    caller that abandons a run on an exception calls it instead. *)

val schedule : t -> tag:string -> delay_ms:float -> (unit -> unit) -> unit
(** A one-shot callback [delay_ms] after the current simulation time,
    fired through the event queue, so it interleaves reproducibly with
    protocol events.  [tag] names it in traces.  It counts in the
    [timer.set] and [timer.fired] metrics and, when tracing, spans
    [timer:<tag>] from arming to firing. *)

type alarm
(** A callback built once, for a caller that arms it again and again. *)

val alarm : tag:string -> (unit -> unit) -> alarm
(** [alarm ~tag f] is the event {!schedule} would push for [f]. *)

val arm : t -> alarm -> float array -> unit
(** [arm t a delay] is {!schedule} of [a]'s callback and tag, [delay.(0)]
    ms from now; the cell keeps the delay unboxed on its way from the
    caller's draw. *)

val now_ms : t -> float
(** The run's simulation clock. *)

val run :
  ?delay_override:(int -> float option) ->
  ?attacker:Bftsim_attack.Attacker.t ->
  ?context:(Bftsim_protocols.Context.t -> Bftsim_protocols.Context.t) ->
  Config.t ->
  result
(** Runs one simulation to completion: {!create}, {!step} until it returns
    [false], then {!finish}. *)

val throughput : result -> float
(** Decided values per simulated second ([decisions_target / time]); the
    quantity the computation-cost extension (§III-A3) makes meaningful. *)

val wall_clock_of_run : Config.t -> float * result
(** [wall_clock_of_run config] measures the host time one simulation takes
    (seconds) — the quantity compared against the packet-level baseline in
    Fig. 2. *)

val pp_outcome : Format.formatter -> outcome -> unit
