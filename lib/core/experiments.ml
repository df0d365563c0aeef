open Bftsim_net

let default_n = 16

(* The figures reproduce the paper's Table I set; the extension protocols
   are exercised by their own bench section and tests. *)
let all_protocols =
  [ "add-v1"; "add-v2"; "add-v3"; "algorand"; "async-ba"; "pbft"; "hotstuff-ns"; "librabft" ]

let extension_protocols = [ "tendermint"; "sync-hotstuff"; "hotstuff-cogsworth" ]

let partially_synchronous = [ "pbft"; "hotstuff-ns"; "librabft" ]

let network_environments =
  [
    ("N(250,50)", Delay_model.normal ~mu:250. ~sigma:50.);
    ("N(500,100)", Delay_model.normal ~mu:500. ~sigma:100.);
    ("N(1000,300)", Delay_model.normal ~mu:1000. ~sigma:300.);
    ("N(1000,1000)", Delay_model.normal ~mu:1000. ~sigma:1000.);
  ]

(* Async BA is a binary-value protocol, so it gets random bit inputs; the
   SMR-style protocols propose distinct values. *)
let inputs_for protocol = if String.equal protocol "async-ba" then Config.Random_binary else Config.Distinct

let base ?(n = default_n) ?(lambda_ms = 1000.) ?(delay = Delay_model.normal ~mu:250. ~sigma:50.)
    ?crashed ?attack ?decisions_target ?view_sample_ms ?chaos ?watchdog ~seed protocol =
  Config.make ~n ?crashed ~lambda_ms ~delay ~seed ?attack ?decisions_target ?view_sample_ms
    ?chaos ?watchdog ~inputs:(inputs_for protocol) protocol

(* Extended past the paper's axis: the allocation-free event core keeps
   the O(n^2) PBFT rounds tractable to n=4096, two orders of magnitude
   past the packet-level baseline's OOM wall.  bench --quick caps the
   sweep (--fig2-max) so CI stays within budget. *)
let fig2_node_counts = [ 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ]

let fig2_config ~n = base ~n ~seed:1 "pbft"

let fig3_config ~protocol ~delay ~seed = base ~delay ~seed protocol

let fig4_lambdas = [ 1000.; 1500.; 2000.; 2500.; 3000. ]

let fig4_config ~protocol ~lambda_ms ~seed = base ~lambda_ms ~seed protocol

let fig5_lambdas = [ 150.; 250.; 500.; 1000.; 2000. ]

let fig5_config ~protocol ~lambda_ms ~seed = base ~lambda_ms ~seed protocol

let fig6_heal_ms = 20_000.

(* Async BA is excluded: a drop-mode partition violates the asynchronous
   model's reliable-channel assumption, under which Bracha's protocol (with
   no retransmission layer) cannot recover lost messages. *)
let fig6_protocols = [ "algorand"; "pbft"; "hotstuff-ns"; "librabft" ]

let fig6_config ~protocol ~seed =
  (* Time to the first consensus, for cross-protocol comparability: the
     paper reports how long after the heal each protocol terminates. *)
  base ~seed
    ~attack:
      (Config.Partition
         { first_size = default_n / 2; start_ms = 0.; heal_ms = fig6_heal_ms; drop = true })
    ~decisions_target:1 protocol

let fig7_failstop_counts = [ 0; 1; 2; 3; 4; 5 ]

let fig7_config ~protocol ~failstop ~seed =
  if failstop < 0 || failstop > Bftsim_protocols.Quorum.max_faulty default_n then
    invalid_arg "Experiments.fig7_config: failstop beyond tolerance";
  (* Crash the highest-numbered nodes so the time-zero leaders stay alive
     and every protocol still meets the crashed leaders as views rotate. *)
  let crashed = List.init failstop (fun i -> default_n - 1 - i) in
  base ~crashed ~lambda_ms:1000. ~delay:(Delay_model.normal ~mu:1000. ~sigma:300.) ~seed protocol

let fig8_f_values = [ 1; 2; 3; 4; 5 ]

let add_variants = [ "add-v1"; "add-v2"; "add-v3" ]

let fig8_static_config ~protocol ~f ~seed = base ~seed ~attack:(Config.Add_static { f }) protocol

let fig8_adaptive_config ~protocol ~f ~seed =
  base ~seed ~attack:(Config.Add_rushing_adaptive { budget = Some f }) protocol

let fig9_config ~seed =
  base ~lambda_ms:150. ~seed ~view_sample_ms:250. "hotstuff-ns"

(* --- Chaos sweeps (beyond the paper: the fault-injection subsystem) --- *)

module Fault_schedule = Bftsim_attack.Fault_schedule

let chaos_gst_ms = 15_000.

let chaos_watchdog = 10.

(* Highest-numbered nodes, like fig7: the time-zero leaders stay alive. *)
let top_nodes count = List.init count (fun i -> default_n - 1 - i)

let chaos_config ~protocol ~seed =
  let f = Bftsim_protocols.Quorum.max_faulty default_n in
  base ~seed ~decisions_target:1 ~watchdog:chaos_watchdog
    ~chaos:(Fault_schedule.crash_and_recover ~nodes:(top_nodes f) ~crash_ms:0. ~recover_ms:chaos_gst_ms)
    protocol

let chaos_overload_config ~protocol ~seed =
  let f = Bftsim_protocols.Quorum.max_faulty default_n in
  base ~seed ~decisions_target:1 ~watchdog:chaos_watchdog
    ~chaos:
      (List.map
         (fun node -> { Fault_schedule.at_ms = 0.; action = Fault_schedule.Crash node })
         (top_nodes (f + 1)))
    protocol

let chaos_turbulence_config ~protocol ~seed =
  base ~seed ~decisions_target:1 ~watchdog:chaos_watchdog
    ~delay:(Delay_model.normal ~mu:500. ~sigma:200.)
    ~chaos:
      (Fault_schedule.normalize
         [
           { Fault_schedule.at_ms = 0.; action = Fault_schedule.Loss_burst { p = 0.1; until_ms = chaos_gst_ms } };
           { Fault_schedule.at_ms = 0.; action = Fault_schedule.Delay_spike { extra_ms = 500.; until_ms = chaos_gst_ms } };
           { Fault_schedule.at_ms = 0.; action = Fault_schedule.Dup_burst { p = 0.05; until_ms = chaos_gst_ms } };
           { Fault_schedule.at_ms = chaos_gst_ms; action = Fault_schedule.Gst_shift (Delay_model.normal ~mu:100. ~sigma:20.) };
         ])
    protocol
