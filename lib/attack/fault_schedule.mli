(** Declarative, timed fault schedules — the chaos plan.

    The paper's flexibility claim (§III-A5) is that the simulator makes it
    cheap to express "as many scenarios as you can imagine".  This module
    turns that into an API: a schedule is a plain list of timestamped fault
    actions (crash, recover, partition, loss / duplication / delay windows,
    a delay-model shift at GST).  The plan is data, not an attacker: the
    run's lifecycle owns it, and pure evaluators answer every consumer's
    question about it:

    - the transport's wire (the send-time verdict {!admit}, the loss and
      duplication windows {!loss_model}, the down-node check at arrival),
    - the controller (step alarms, timer suppression for crashed nodes, the
      liveness watchdog's notion of "the scenario just changed"),
    - the invariant monitors (no decision by a crashed node).

    Being pure data, with every random draw taken from the wire's seeded
    loss stream, chaos runs stay replayable under
    [Validator.check_determinism]. *)

open Bftsim_net

type action =
  | Crash of int
      (** Fail-stop the node: messages it sends are lost, messages arriving
          while it is down are lost, and its pending timers are deferred to
          its next {!Recover} (dropped if it never recovers). *)
  | Recover of int
      (** Bring a crashed node back up with its in-memory state intact —
          the node object survives, as if the process was merely paused. *)
  | Restart of int
      (** Bring a crashed node back up {e losing all volatile state}: the
          controller creates a fresh node object, which rehydrates from its
          simulated WAL ([Context.persist] / [recall]) and catches up with
          peers via the protocol's [on_restart] hook.  Like {!Recover}, it
          ends the crash window. *)
  | Partition of int list list
      (** Disjoint groups; cross-group traffic is dropped until {!Heal}.
          Nodes not listed in any group form one implicit residual group. *)
  | Heal  (** Lift the active partition. *)
  | Loss_burst of { p : float; until_ms : float }
      (** Drop each message independently with probability [p] until
          [until_ms], on top of the configured loss model ({!loss_model}). *)
  | Dup_burst of { p : float; until_ms : float }
      (** Duplicate each delivered message with probability [p] until
          [until_ms], on top of the configured loss model; the copy arrives
          λ/2 after the original. *)
  | Delay_spike of { extra_ms : float; until_ms : float }
      (** Add [extra_ms] to every message's delay until [until_ms]. *)
  | Gst_shift of Delay_model.t
      (** Swap the network's delay distribution — model a network that
          stabilizes (GST) or degrades at a known instant. *)

type step = { at_ms : float; action : action }

type t = step list
(** A schedule; {!normalize} sorts it by time (stable, so same-instant
    steps apply in list order). *)

val empty : t

val normalize : t -> t

val validate : n:int -> t -> unit
(** Rejects malformed plans with a descriptive [Invalid_argument]: node ids
    outside [\[0, n)], non-finite or negative times, burst windows ending
    before they start, probabilities outside [\[0, 1\]], overlapping
    partition groups, crash windows that overlap on the same node, and
    recoveries/restarts without a preceding crash. *)

val crash_and_recover : nodes:int list -> crash_ms:float -> recover_ms:float -> t
(** The canonical chaos scenario: fail-stop [nodes] at [crash_ms] and
    restart them at [recover_ms]. *)

val crash_and_restart : nodes:int list -> crash_ms:float -> restart_ms:float -> t
(** Like {!crash_and_recover}, but the nodes come back with volatile state
    lost ({!Restart}) and must rehydrate + catch up. *)

val restarts : t -> int list
(** Nodes the plan restarts (with multiplicity, in plan order). *)

val crashed_at : t -> node:int -> at_ms:float -> bool
(** Pure evaluation of the plan: is [node] down at [at_ms]?  (Last
    crash/recover/restart step at or before [at_ms] wins.) *)

val ever_crashed : t -> node:int -> bool
(** Does the plan crash [node] at any point?  A recovered node's decision
    log misses what was decided while it was down until it catches up,
    which only pbft and the chained family do, so per-index agreement
    checks only apply to nodes for which this is [false]. *)

val next_recovery_after : t -> node:int -> at_ms:float -> float option
(** Earliest [Recover node] or [Restart node] step strictly after [at_ms],
    if any. *)

val splits : int list list -> src:int -> dst:int -> bool
(** Do the partition [groups] place [src] and [dst] on different sides?
    Nodes listed in no group form one implicit residual group. *)

val separated : t -> src:int -> dst:int -> at_ms:float -> bool
(** Does the partition active at [at_ms] (if any) {!splits} [src] and
    [dst]? *)

val step_times : t -> float list
(** Sorted step times — the controller's watchdog treats each as a scenario
    change that resets the stall clock. *)

val admit : t -> Message.t -> dst:int -> delay_ms:float -> at_ms:float -> Attacker.verdict
(** The plan's send-time verdict on the delivery of [msg] to [dst], sent at
    [at_ms] after [delay_ms]: [Drop] when its source is down or a partition
    separates its endpoints; [Delay] with every active delay spike added to
    [delay_ms]; otherwise [Deliver].  Self-addressed messages always pass.
    A destination that is down when the message arrives is not decided here
    — the arrival instant is only final after the loss model — so the
    transport drops it at delivery ({!crashed_at} at the actual arrival). *)

val loss_windows : t -> bool
(** Does the plan have a loss or duplication window? *)

val loss_model : t -> base:Loss_model.t -> at_ms:float -> Loss_model.t
(** The loss model a message sent at [at_ms] goes through: [base] with the
    drop and duplication probabilities of every active window combined in,
    as independent events (drop [1 - (1 - d)(1 - p)], dup likewise).
    [base] itself when no window is active. *)

val describe : t -> string
(** Round-trips through {!of_string} exactly, floats included
    ({!Bftsim_sim.Float_text.to_string}); e.g. ["crash:3@0;recover:3@15000"]. *)

val describe_action : action -> string

val of_string : string -> (t, string) result
(** Parses the CLI syntax: semicolon-separated steps, each [action@time]:
    [crash:<id>@<ms>], [recover:<id>@<ms>], [restart:<id>@<ms>]
    (recovery with volatile state lost),
    [partition:<ids>|<ids>|...@<ms>] (comma-separated ids per group),
    [heal@<ms>], [loss:<p>@<from>-<until>], [dup:<p>@<from>-<until>],
    [spike:<extra_ms>@<from>-<until>], [gst:<delay-model>@<ms>] (any
    {!Delay_model.of_string} syntax).  Example:
    ["crash:14@0;crash:15@0;loss:0.2@0-8000;recover:14@15000;recover:15@15000;gst:normal:100,10@15000"]. *)
