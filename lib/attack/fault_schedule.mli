(** Declarative, timed fault schedules — the chaos layer.

    The paper's flexibility claim (§III-A5) is that the abstracted global
    attacker makes it cheap to express "as many scenarios as you can
    imagine".  This module turns that into an API: a schedule is a plain
    list of timestamped fault actions (crash, recover, partition, loss /
    duplication / delay bursts, a delay-model shift at GST) that
    {!to_attacker} compiles into an ordinary {!Attacker.t}.  Because the
    plan is declarative data rather than callback state, the same value
    drives three consumers:

    - the attacker (message verdicts and timed side effects),
    - the controller (timer suppression for crashed nodes, the liveness
      watchdog's notion of "the scenario just changed"),
    - the invariant monitors (no decision by a crashed node).

    Schedules compose with hand-written attackers via {!Attacker.compose},
    and — being pure data evaluated against a seeded RNG — chaos runs stay
    replayable under [Validator.check_determinism]. *)

open Bftsim_sim
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
          [until_ms] (drawn from the attacker's seeded RNG stream). *)
  | Dup_burst of { p : float; until_ms : float }
      (** Duplicate each delivered message with probability [p] until
          [until_ms]; the copy arrives 1 ms after the original. *)
  | Delay_spike of { extra_ms : float; until_ms : float }
      (** Add [extra_ms] to every message's delay until [until_ms]. *)
  | Gst_shift of Delay_model.t
      (** Swap the network's delay distribution — model a network that
          stabilizes (GST) or degrades at a known instant. *)

type step = { at_ms : float; action : action }

type t = step list
(** A schedule; {!normalize} sorts it by time (stable, so same-instant
    steps apply in list order). *)

type Timer.payload += Chaos_step of action
(** The attacker timer each step is armed on; exposed so traces and
    composed attackers can recognize chaos transitions. *)

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

val has_restart : t -> node:int -> bool

val crashed_at : t -> node:int -> at_ms:float -> bool
(** Pure evaluation of the plan: is [node] down at [at_ms]?  (Last
    crash/recover/restart step at or before [at_ms] wins.) *)

val ever_crashed : t -> node:int -> bool
(** Does the plan crash [node] at any point?  Recovered nodes have sparse
    decision logs (no state transfer), so per-index agreement checks only
    apply to nodes for which this is [false]. *)

val next_recovery_after : t -> node:int -> at_ms:float -> float option
(** Earliest [Recover node] or [Restart node] step strictly after [at_ms],
    if any. *)

val separated : t -> src:int -> dst:int -> at_ms:float -> bool
(** Does the partition active at [at_ms] (if any) place [src] and [dst] in
    different groups? *)

val step_times : t -> float list
(** Sorted step times — the controller's watchdog treats each as a scenario
    change that resets the stall clock. *)

val to_attacker : t -> Attacker.t
(** Compiles the plan into an attacker.  Message verdicts are evaluated
    against the plan at the message's send time: its source's crash state,
    the partition, bursts.  A destination that is down when a message
    arrives is not the attacker's call — the arrival instant is only final
    after the loss model — so the controller's transport drops it at
    delivery ({!crashed_at} at the actual arrival).  [Gst_shift] steps fire
    on attacker timers and call [env.override_delay]. *)

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
