(** Canonical configurations for every experiment in the paper's evaluation
    (§IV) — the single source of truth shared by the benchmark harness, the
    CLI and the integration tests.  Parameters follow the paper exactly
    where it states them (figure captions) and use its defaults elsewhere:
    n = 16 nodes, lambda = 1000 ms, delays N(250, 50). *)

open Bftsim_net

val default_n : int

val all_protocols : string list
(** The eight protocols in Table I order. *)

val extension_protocols : string list
(** Protocols implemented beyond the paper: Tendermint, Sync HotStuff and
    HotStuff with the Cogsworth synchronizer. *)

val partially_synchronous : string list
(** pbft, hotstuff-ns, librabft — the protocols of Figs. 5 and 6. *)

val network_environments : (string * Delay_model.t) list
(** The four environments of Fig. 3, fast/stable through slow/unstable:
    N(250,50), N(500,100), N(1000,300), N(1000,1000). *)

val fig2_node_counts : int list
(** 4, 8, 16, 32, 64, 128, 256, 512. *)

val fig2_config : n:int -> Config.t
(** PBFT, lambda = 1000, N(250, 50) — the Fig. 2 scaling workload. *)

val fig3_config : protocol:string -> delay:Delay_model.t -> seed:int -> Config.t

val fig4_lambdas : float list
(** 1000 .. 3000 in 500 steps. *)

val fig4_config : protocol:string -> lambda_ms:float -> seed:int -> Config.t

val fig5_lambdas : float list
(** 150, 250, 500, 1000, 2000. *)

val fig5_config : protocol:string -> lambda_ms:float -> seed:int -> Config.t

val fig6_heal_ms : float

val fig6_protocols : string list
(** Algorand (the partition-resilient synchronous protocol) plus the
    partially-synchronous protocols and async BA. *)

val fig6_config : protocol:string -> seed:int -> Config.t
(** Two equal subnets, cross traffic dropped during [\[0, fig6_heal_ms)]. *)

val fig7_failstop_counts : int list
(** 0 .. 5 fail-stop nodes out of 16. *)

val fig7_config : protocol:string -> failstop:int -> seed:int -> Config.t
(** lambda = 1000, N(1000, 300) as in the Fig. 7 caption. *)

val fig8_f_values : int list
(** 1 .. 5 (n = 16 tolerates f <= 5). *)

val add_variants : string list

val fig8_static_config : protocol:string -> f:int -> seed:int -> Config.t

val fig8_adaptive_config : protocol:string -> f:int -> seed:int -> Config.t
(** Rushing adaptive attacker with a corruption budget of [f]. *)

val fig9_config : seed:int -> Config.t
(** HotStuff+NS, lambda = 150, N(250, 50), view sampling on — the
    view-synchronization case study. *)

val chaos_gst_ms : float
(** When the canonical chaos scenarios stabilize (15 s). *)

val chaos_watchdog : float
(** Watchdog multiplier used by the chaos sweeps (10 lambda). *)

val chaos_config : protocol:string -> seed:int -> Config.t
(** The canonical chaos scenario: fail-stop the [f] highest-numbered nodes
    at t = 0 and restart them at {!chaos_gst_ms}, with the liveness
    watchdog armed. *)

val chaos_overload_config : protocol:string -> seed:int -> Config.t
(** Crash [f + 1] nodes forever — beyond every tolerance bound, so no
    quorum forms.  The watchdog converts the inevitable non-termination
    into {!Controller.outcome.Stalled} within [chaos_watchdog * lambda]. *)

val chaos_turbulence_config : protocol:string -> seed:int -> Config.t
(** Lossy, duplicating, delay-spiked network until {!chaos_gst_ms}, then a
    GST shift to a fast stable delay model. *)
