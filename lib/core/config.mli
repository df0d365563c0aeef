(** Simulation configuration.

    The paper's user story: "a user of our simulator needs only to write a
    configuration file specifying the network model and parameters, the BFT
    protocol, and, optionally, the attack scenario" (§III-A).  This record
    is that configuration; {!of_keyvalues} parses the file syntax used by
    the CLI. *)

open Bftsim_net

type attack_spec =
  | No_attack
  | Partition of { first_size : int; start_ms : float; heal_ms : float; drop : bool }
      (** Two-subnet partition attack; [drop = false] buffers cross traffic
          until the heal instead of dropping it. *)
  | Silence of { nodes : int list; at_ms : float }
      (** Fail-stop a set of nodes at a given time (attacker-driven). *)
  | Add_static of { f : int }  (** ADD+ static attack (Fig. 8 left). *)
  | Add_rushing_adaptive of { budget : int option }
      (** ADD+ rushing adaptive attack (Fig. 8 right); [budget] caps the
          corruptions (default: the tolerance bound [f]). *)
  | Extra_delay of { extra_ms : float }  (** Uniform adversarial slowdown. *)

type transport =
  | Direct  (** Broadcast = n point-to-point sends (the paper's model). *)
  | Gossip of { fanout : int }
      (** Epidemic dissemination: the origin sends to [fanout] random peers
          and every first-time receiver re-forwards to [fanout] more — the
          transport blockchain deployments actually use.  Trades extra
          messages and hops for sender bandwidth. *)

type inputs =
  | Distinct  (** Node [i] proposes ["v<i>"] — the general case. *)
  | Same of string  (** Unanimous inputs (validity tests). *)
  | Random_binary  (** Random bit per node (async BA workloads). *)

type telemetry = {
  metrics : bool;
      (** Collect a per-run metrics registry (counters, gauges, sim-time
          histograms), attached to [Controller.result.metrics] and merged
          deterministically across replications by [Runner.run_many]. *)
  tracing : bool;
      (** Record typed spans/instants into a bounded ring buffer
          ([Controller.result.spans]); export with [Bftsim_obs.Exporter]. *)
  trace_capacity : int;  (** Ring-buffer size; oldest entries are shed. *)
}

val default_telemetry : telemetry
(** Everything off, 65536-entry ring — the zero-overhead default. *)

type supervision = {
  deadline_ms : float option;
      (** Per-attempt wall-clock budget for a supervised run; the controller
          polls the supervisor's cancel flag in its event loop, so a
          deadline abandons a run between events and never perturbs a run
          that completes.  [None] = unbounded. *)
  max_retries : int;  (** Additional attempts after a failed one. *)
  quarantine_after : int;
      (** Total failures of one run key before it is quarantined. *)
  retry_base_ms : float;
      (** Base of the deterministic backoff jitter ([Supervisor.retry_delay_ms]);
          [0.] retries immediately. *)
}

val default_supervision : supervision
(** No deadline, one retry, quarantine after 3 failures, no backoff. *)

type t = {
  protocol : string;  (** Registry name, e.g. ["pbft"]. *)
  n : int;
  crashed : int list;
      (** Fail-stop nodes that are never started, realizing the paper's
          "start the system with n-f honest nodes" fail-stop model. *)
  lambda_ms : float;  (** The protocol's assumed delay bound / timeout. *)
  delay : Delay_model.t;  (** The network's actual delay distribution. *)
  seed : int;
  attack : attack_spec;
  decisions_target : int;
      (** Stop once every counted honest node has this many decisions:
          10 for pipelined protocols, 1 otherwise (paper §IV). *)
  max_time_ms : float;  (** Liveness cap: give up and report failure. *)
  max_events : int;  (** Hard safety cap on processed events. *)
  inputs : inputs;
  transport : transport;
  costs : Cost_model.t;
      (** Per-message computation costs; {!Cost_model.zero} reproduces the
          paper's cost-free model, anything else enables the throughput
          extension of §III-A3. *)
  record_trace : bool;
  view_sample_ms : float option;
      (** If set, sample every node's view at this period (Fig. 9). *)
  chaos : Bftsim_attack.Fault_schedule.t;
      (** Timed fault plan (crashes, recoveries, partitions, bursts, GST
          shifts); the transport wire rules on it before [attack].  Kept
          normalized (sorted by time). *)
  twins : Bftsim_attack.Twins_schedule.t option;
      (** Twins-style attacker (DESIGN.md §3.14): each listed identity runs a
          duplicate replica sharing its credentials, under a round-indexed
          partition schedule and optional per-view leader pinning.  [None] =
          ordinary run.  Requires [Direct] transport and no node-addressed
          [attack]. *)
  watchdog : float option;
      (** Liveness watchdog: abort with {!Controller.outcome.Stalled} once
          no counted node has decided for [k * lambda_ms] (and no scheduled
          chaos step intervened).  [None] disables the watchdog. *)
  check_validity : bool;
      (** Enable the online validity monitor (decided values must be
          proposed values).  Off by default: chained protocols decide block
          digests, not raw inputs, and would trip it spuriously.  Like
          [record_trace] and [view_sample_ms], it has no file syntax. *)
  naive_reset : Bftsim_protocols.Context.naive_reset_policy;
      (** HotStuff+NS pacemaker ablation knob (DESIGN.md §3.5), plumbed to
          the nodes through their context.  Per-run configuration rather
          than a process-global setter so concurrent runs cannot race
          ([commit] (default) | [never] | [view]). *)
  telemetry : telemetry;
      (** Observability switches (DESIGN.md §3.11).  Off by default; the
          disabled path costs a handful of dead-cell stores per event. *)
  supervision : supervision;
      (** Campaign-supervision knobs (DESIGN.md §3.13): wall-clock deadline,
          retry budget, quarantine threshold.  Only consulted by the
          supervised campaign drivers ([Runner.run_many],
          [Conformance.Harness]); a bare [Controller.run] ignores them. *)
  zones : string option;
      (** Geographic zone spec ([geo3] | [geo5] | [uniform:<k>@<rtt>], see
          {!Bftsim_net.Topology.zones_of_spec}): replicas are placed
          round-robin across named zones and every message pays the one-way
          inter-zone latency on top of the sampled delay, which becomes the
          jitter.  [None] = the classic single-site model. *)
  bandwidth_mbps : float option;
      (** Per-sender egress bandwidth (Mbps): messages serialize FIFO
          through the sender's link, so message size becomes delay and
          congestion.  [None] = infinite bandwidth (sizes cost nothing). *)
  pipeline : int;
      (** Consensus heights a leader may keep in flight at once (slot-based
          protocols; consumed through [Context.pipeline_depth]).  [1] (the
          default) reproduces the classic sequential behavior bit for bit. *)
  loss : Bftsim_net.Loss_model.t;
      (** Stochastic per-link network faults — independent drop ([loss]
          key), duplication ([dup]), bounded reordering ([reorder], ms) and
          Gilbert–Elliott burst loss ([burst_loss = "p_gb,p_bg,p_bad"]) —
          applied after any attacker verdict, drawn from a dedicated RNG
          stream.  {!Bftsim_net.Loss_model.none} (the default) keeps the
          legacy reliable-delivery path bit for bit. *)
  reliable : bool;
      (** Run protocol traffic over the simulated reliable channel
          (DESIGN.md fault-model table): sequence-numbered frames, acks,
          retransmission with exponential backoff + deterministic jitter and
          a retry cap, dedup on receive.  Channel state is modeled as
          WAL-backed, so it survives a [restart@] chaos event.  [false]
          (the default) is the exact legacy path.  Requires [Direct]
          transport. *)
  retrans_base_ms : float;
      (** Base retransmission timeout; attempt [k] fires after
          [base * backoff^k] plus deterministic jitter.  [0.] (the default)
          derives the base as [2 * lambda_ms] at run time. *)
  retrans_backoff : float;  (** Exponential backoff factor; must be >= 1. *)
  retrans_max : int;
      (** Retransmission attempts per frame before the channel gives up
          (the original send always happens). *)
  wal_ms : float;
      (** Cost-modeled latency of one simulated WAL write
          ([Context.persist]): each write occupies the writing node's
          sequential CPU for this long, delaying its subsequent sends.
          [0.] (the default) keeps persistence free and the legacy cost
          path exact. *)
  stall_ms : float option;
      (** Absolute liveness-watchdog stall threshold in simulated ms.  When
          set it arms the watchdog with an absolute threshold, overriding
          the [watchdog * lambda_ms] product — lossy runs make legitimate
          progress slower, so give them a wider leash instead of disabling
          the watchdog.  [None] (the default) keeps the multiplier
          semantics. *)
}

val validate : t -> unit
(** Full consistency check.  Each key's own range check lives in the key
    table next to its parser; the checks that relate fields follow.  In
    all: positive [lambda_ms] / caps / decision target,
    crashed ids in range and unique and within the protocol model's
    tolerance ((n-1)/2 crash faults under synchrony, (n-1)/3 otherwise),
    well-formed attack windows (partition [heal_ms > start_ms >= 0],
    non-negative silence onset / extra delay, in-range silenced ids),
    well-formed chaos schedule over the {e physical} replica set, positive
    watchdog multiplier, and a consistent twins schedule (twinned ids
    counted against the tolerance together with [crashed], [Direct]
    transport, no node-addressed attack).  Run by {!make} and again at
    [Controller.run] entry so hand-built records are rejected with a
    descriptive [Invalid_argument] rather than silently misbehaving.
    Chaos-schedule crashes are deliberately {e not} counted against the
    tolerance bound — over-crashing is a legitimate chaos experiment; the
    watchdog turns the resulting stall into a result. *)

val physical_n : t -> int
(** Replicas actually instantiated: [n] plus one duplicate per twinned
    identity ({!Bftsim_attack.Twins_schedule.physical_n}). *)

val make :
  ?n:int ->
  ?crashed:int list ->
  ?lambda_ms:float ->
  ?delay:Delay_model.t ->
  ?seed:int ->
  ?attack:attack_spec ->
  ?decisions_target:int ->
  ?max_time_ms:float ->
  ?max_events:int ->
  ?inputs:inputs ->
  ?transport:transport ->
  ?costs:Cost_model.t ->
  ?record_trace:bool ->
  ?view_sample_ms:float ->
  ?chaos:Bftsim_attack.Fault_schedule.t ->
  ?twins:Bftsim_attack.Twins_schedule.t ->
  ?watchdog:float ->
  ?check_validity:bool ->
  ?naive_reset:Bftsim_protocols.Context.naive_reset_policy ->
  ?telemetry:telemetry ->
  ?supervision:supervision ->
  ?zones:string ->
  ?bandwidth_mbps:float ->
  ?pipeline:int ->
  ?loss:Bftsim_net.Loss_model.t ->
  ?reliable:bool ->
  ?retrans_base_ms:float ->
  ?retrans_backoff:float ->
  ?retrans_max:int ->
  ?wal_ms:float ->
  ?stall_ms:float ->
  string ->
  t
(** [make protocol] builds a configuration with the paper's defaults:
    [n = 16], [lambda = 1000], delays [N(250, 50)], no attack, no crashes,
    decision target derived from the protocol's pipelining, 10-minute
    simulated-time cap.  @raise Invalid_argument on an unknown protocol or
    inconsistent parameters. *)

val input_for : t -> int -> string
(** The input value node [i] starts with under this configuration. *)

val describe : t -> string
(** One-line summary used in tables and logs. *)

val describe_attack : attack_spec -> string

val of_keyvalues : (string * string) list -> (t, string) result
(** Builds a config from [key = value] pairs (the CLI's config-file
    contents) by folding the key table over the defaults; the first
    binding of a key wins.  The keys, their flags, defaults and value
    syntax are listed in README.md, "Configuration keys".  A key outside
    {!keys} is an error that names it. *)

val to_keyvalues : t -> (string * string) list
(** Inverse of {!of_keyvalues}: the configuration as parseable key = value
    pairs (the repro-bundle format), in table order.  The first nine keys
    (protocol through inputs) are always written, every other key only
    when its value differs from the default.  Floats print exactly
    ({!Bftsim_sim.Float_text}), so [of_keyvalues (to_keyvalues c) = Ok c]
    for every valid [c] whose three fields without file syntax
    ([record_trace], [view_sample_ms], [check_validity]) are at their
    defaults. *)

val keys : string list
(** Every file key, in table order. *)

val differing_keys : t -> t -> string list
(** The keys whose values differ between two configs, followed by the
    names of differing fields without file syntax. *)

(** Which subcommands offer a key's flag: each config-taking subcommand
    exposes a fixed list of these sets. *)
type flag_set =
  | Base  (** protocol, n, lambda, delay, seed, crashed, max-time *)
  | Scenario  (** attack, target, inputs, chaos, watchdog *)
  | Transport  (** transport, costs *)
  | Faults  (** the lossy-network and crash-recovery family *)
  | Placement  (** zones, bandwidth, pipeline *)
  | Supervision  (** deadline, retries, quarantine *)

type flag = {
  set : flag_set;
  names : string list;  (** Spellings without dashes, e.g. [["p"; "protocol"]]. *)
  docv : string option;  (** [None]: a switch that sets the key to [true]. *)
  doc : string;  (** Help text (cmdliner markup). *)
}

val flags : (string * flag) list
(** The CLI flag of every key that has one, keyed by file key. *)
