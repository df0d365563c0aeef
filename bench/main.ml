(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§IV).

   Each section prints the same rows/series the paper reports; absolute
   numbers reflect this simulator on this machine, but the shapes (who wins,
   by roughly what factor, where the crossovers fall) are the reproduction
   targets — EXPERIMENTS.md records the paper-vs-measured comparison.

   Repetitions default to 20 per configuration (the paper uses 100); set
   BFTSIM_REPS to change.  A bechamel micro-benchmark per table/figure
   kernel closes the run.

   Run with: dune exec bench/main.exe
   Options:  --json FILE   write machine-readable per-kernel wall times
             --jobs N      domain-pool size for run_many fan-out
             --quick       only the speedup kernel + LoC tables (CI smoke) *)

module Core = Bftsim_core
module Net = Bftsim_net
module B = Bftsim_baseline
module Wl = Bftsim_workload
module Attack = Bftsim_attack

let reps = Core.Runner.default_reps ()

(* --- command line (kept dependency-free: bench has no cmdliner) --- *)

let json_file = ref None
let jobs = ref None
let quick = ref false
let fig2_max = ref None

let () =
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some j when j >= 1 -> jobs := Some j
      | Some _ | None -> prerr_endline ("bench: ignoring invalid --jobs " ^ v));
      parse rest
    | "--fig2-max" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 4 -> fig2_max := Some n
      | Some _ | None -> prerr_endline ("bench: ignoring invalid --fig2-max " ^ v));
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | arg :: rest ->
      prerr_endline ("bench: unknown argument " ^ arg);
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv))

let effective_jobs () =
  match !jobs with Some j -> j | None -> Core.Parallel.default_jobs ()

(* Per-kernel wall times, accumulated for the --json report. *)
let timings : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  timings := (name, Unix.gettimeofday () -. t0) :: !timings

(* seq vs par wall time of the run_many speedup kernel, for --json. *)
let speedup_record : (float * float * int * float) option ref = ref None

(* off-vs-off noise floor and metrics/tracing overhead ratios, for --json. *)
let obs_overhead_record : (float * float * float * float) option ref = ref None

(* bare wall time and supervised / supervised-with-deadline ratios, for --json. *)
let supervision_overhead_record : (float * float * float) option ref = ref None

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let pp_mean_std ppf (s : Core.Stats.t) = Format.fprintf ppf "%8.2f ± %6.2f" s.mean s.stddev

let latency_summary config =
  let s = Core.Runner.run_many ~reps ?jobs:!jobs config in
  (s.latency_ms, s.messages, s.liveness_failures, s.safety_violations)

let seconds (s : Core.Stats.t) =
  {
    s with
    Core.Stats.mean = s.mean /. 1000.;
    stddev = s.stddev /. 1000.;
    min = s.min /. 1000.;
    max = s.max /. 1000.;
    median = s.median /. 1000.;
    p95 = s.p95 /. 1000.;
    p99 = s.p99 /. 1000.;
  }

(* ---------------- Tables I and II ---------------- *)

let tables () =
  section "Table I — Implemented BFT protocols (LoC measured on this repo)";
  (match Core.Loc_count.find_root () with
  | None -> Printf.printf "  (sources not found; run from the repository root)\n"
  | Some root ->
    Printf.printf "  %-22s %-24s %s\n" "Protocol" "Network Model" "LoC";
    List.iter
      (fun (e : Core.Loc_count.entry) ->
        Printf.printf "  %-22s %-24s %d\n" e.label e.network_model e.loc)
      (Core.Loc_count.table1 ~root);
    section "Table II — Implemented attacks";
    Printf.printf "  %-28s %-22s %s\n" "Attack" "Attacker Capability" "LoC";
    List.iter
      (fun (e : Core.Loc_count.entry) ->
        Printf.printf "  %-28s %-22s %d\n" e.label e.network_model e.loc)
      (Core.Loc_count.table2 ~root))

(* ---------------- Fig 2: simulation time, ours vs packet-level ---------------- *)

(* Per-n wall times of the extended sweep, for --json. *)
let fig2_record : (int * int * float) list ref = ref []

let fig2 ~max_n () =
  section
    (Printf.sprintf
       "Fig 2 — Simulation wall time for PBFT (lambda=1000, N(250,50)); ours vs\n\
        the packet-level baseline (BFTSim substitute; capped at 32 nodes like\n\
        BFTSim's OOM limit).  Extended past the paper's 512-node axis to\n\
        n=%d (one sample above 256; --fig2-max caps the sweep)"
       max_n);
  Printf.printf "  %-6s %14s %24s %10s\n" "nodes" "ours (s)" "baseline (s)" "ratio";
  List.iter
    (fun n ->
      if n <= max_n then begin
        let samples = if n <= 256 then 3 else 1 in
        let ours =
          Core.Stats.of_list
            (List.init samples (fun k ->
                 fst
                   (Core.Controller.wall_clock_of_run
                      { (Core.Experiments.fig2_config ~n) with Core.Config.seed = 1 + k })))
        in
        fig2_record := (n, samples, ours.mean) :: !fig2_record;
        if n <= 32 then begin
          let baseline =
            Core.Stats.of_list
              (List.init 3 (fun k -> fst (B.Engine.wall_clock_of_run ~n ~seed:(1 + k) ())))
          in
          Printf.printf "  %-6d %14.4f %24.3f %9.0fx\n%!" n ours.mean baseline.mean
            (baseline.mean /. Float.max ours.mean 1e-9)
        end
        else
          Printf.printf "  %-6d %14.4f %24s %10s\n%!" n ours.mean
            (Printf.sprintf "(infeasible: ~%d MiB)"
               (B.Engine.estimated_memory_bytes ~n / 1024 / 1024))
            "-"
      end)
    Core.Experiments.fig2_node_counts

(* ---------------- Fig 3: four network environments ---------------- *)

let fig3 () =
  section "Fig 3a — Per-decision latency (s) across four network environments (lambda=1000)";
  Printf.printf "  %-12s" "protocol";
  List.iter (fun (name, _) -> Printf.printf " %17s" name) Core.Experiments.network_environments;
  Printf.printf "\n";
  let msg_rows = ref [] in
  List.iter
    (fun protocol ->
      Printf.printf "  %-12s" protocol;
      let msg_cells =
        List.map
          (fun (_, delay) ->
            let latency, messages, live_fail, safety =
              latency_summary (Core.Experiments.fig3_config ~protocol ~delay ~seed:1)
            in
            assert (safety = 0);
            Format.printf " %a%s" pp_mean_std (seconds latency) (if live_fail > 0 then "!" else " ");
            messages)
          Core.Experiments.network_environments
      in
      msg_rows := (protocol, msg_cells) :: !msg_rows;
      Format.printf "@?";
      Printf.printf "\n%!")
    Core.Experiments.all_protocols;
  section "Fig 3b — Per-decision message count, same environments";
  Printf.printf "  %-12s" "protocol";
  List.iter (fun (name, _) -> Printf.printf " %17s" name) Core.Experiments.network_environments;
  Printf.printf "\n";
  List.iter
    (fun (protocol, cells) ->
      Printf.printf "  %-12s" protocol;
      List.iter (fun m -> Format.printf " %a " pp_mean_std m) cells;
      Format.printf "@?";
      Printf.printf "\n%!")
    (List.rev !msg_rows)

(* ---------------- Fig 4: overestimated timeout ---------------- *)

let fig4 () =
  section
    "Fig 4 — Per-decision latency (s) when the timeout is overestimated\n\
     (lambda 1000..3000, delays fixed at N(250,50)); responsive protocols are flat";
  Printf.printf "  %-12s" "protocol";
  List.iter (fun l -> Printf.printf " %17.0f" l) Core.Experiments.fig4_lambdas;
  Printf.printf "\n";
  List.iter
    (fun protocol ->
      Printf.printf "  %-12s" protocol;
      List.iter
        (fun lambda_ms ->
          let latency, _, _, _ =
            latency_summary (Core.Experiments.fig4_config ~protocol ~lambda_ms ~seed:1)
          in
          Format.printf " %a " pp_mean_std (seconds latency))
        Core.Experiments.fig4_lambdas;
      Format.printf "@?";
      Printf.printf "\n%!")
    Core.Experiments.all_protocols

(* ---------------- Fig 5: underestimated timeout ---------------- *)

let fig5 () =
  section
    "Fig 5 — Partially-synchronous protocols when the delay bound is\n\
     under/over-estimated (lambda 150..2000, delays N(250,50))";
  Printf.printf "  %-12s" "protocol";
  List.iter (fun l -> Printf.printf " %17.0f" l) Core.Experiments.fig5_lambdas;
  Printf.printf "\n";
  List.iter
    (fun protocol ->
      Printf.printf "  %-12s" protocol;
      List.iter
        (fun lambda_ms ->
          let latency, _, _, _ =
            latency_summary (Core.Experiments.fig5_config ~protocol ~lambda_ms ~seed:1)
          in
          Format.printf " %a " pp_mean_std (seconds latency))
        Core.Experiments.fig5_lambdas;
      Format.printf "@?";
      Printf.printf "\n%!")
    Core.Experiments.partially_synchronous

(* ---------------- Fig 6: partition attack ---------------- *)

let fig6 () =
  section
    (Printf.sprintf
       "Fig 6 — Time (s) to first consensus under a two-subnet partition\n\
        attack; cross traffic dropped until the heal at %.0f s (dotted line)"
       (Core.Experiments.fig6_heal_ms /. 1000.));
  Printf.printf "  %-12s %20s %14s\n" "protocol" "consensus at (s)" "overhang (s)";
  List.iter
    (fun protocol ->
      let latency, _, _, _ = latency_summary (Core.Experiments.fig6_config ~protocol ~seed:1) in
      let latency = seconds latency in
      Printf.printf "  %-12s %12.1f ± %4.1f %12.1f\n%!" protocol latency.mean latency.stddev
        (latency.mean -. (Core.Experiments.fig6_heal_ms /. 1000.)))
    Core.Experiments.fig6_protocols

(* ---------------- Fig 7: fail-stop nodes ---------------- *)

let fig7 () =
  section
    "Fig 7 — Per-decision latency (s) across fail-stop node counts\n\
     (lambda=1000, N(1000,300)); '!' marks runs that hit the liveness cap";
  Printf.printf "  %-12s" "protocol";
  List.iter (fun k -> Printf.printf " %17d" k) Core.Experiments.fig7_failstop_counts;
  Printf.printf "\n";
  List.iter
    (fun protocol ->
      Printf.printf "  %-12s" protocol;
      List.iter
        (fun failstop ->
          let latency, _, live_fail, _ =
            latency_summary (Core.Experiments.fig7_config ~protocol ~failstop ~seed:1)
          in
          Format.printf " %a%s" pp_mean_std (seconds latency) (if live_fail > 0 then "!" else " "))
        Core.Experiments.fig7_failstop_counts;
      Format.printf "@?";
      Printf.printf "\n%!")
    Core.Experiments.all_protocols

(* ---------------- Fig 8: attacks on ADD+ ---------------- *)

let fig8 () =
  let sweep label make_config =
    section label;
    Printf.printf "  %-12s" "protocol";
    List.iter (fun f -> Printf.printf " %17d" f) Core.Experiments.fig8_f_values;
    Printf.printf "\n";
    List.iter
      (fun protocol ->
        Printf.printf "  %-12s" protocol;
        List.iter
          (fun f ->
            let latency, _, _, _ = latency_summary (make_config ~protocol ~f) in
            Format.printf " %a " pp_mean_std (seconds latency))
          Core.Experiments.fig8_f_values;
        Format.printf "@?";
        Printf.printf "\n%!")
      Core.Experiments.add_variants
  in
  sweep "Fig 8 (left) — Latency (s) under the static attack (crash first f leaders)"
    (fun ~protocol ~f -> Core.Experiments.fig8_static_config ~protocol ~f ~seed:1);
  sweep "Fig 8 (right) — Latency (s) under the rushing adaptive attack (budget f)" (fun ~protocol ~f ->
      Core.Experiments.fig8_adaptive_config ~protocol ~f ~seed:1)

(* ---------------- Fig 9: view timeline ---------------- *)

let fig9 () =
  section
    "Fig 9 — Each node's view during HotStuff+NS execution\n\
     (lambda=150, N(250,50)); each symbol is a view number";
  let r = Core.Controller.run (Core.Experiments.fig9_config ~seed:9) in
  print_string (Core.View_tracker.render ~width:90 r.view_samples);
  let d = Core.View_tracker.analyze ~sample_ms:250. r.view_samples in
  Printf.printf
    "  run length %.1f s; max view spread %d; %.1f s with diverged views (first at %s)\n%!"
    (r.time_ms /. 1000.) d.max_spread
    (d.time_desynced_ms /. 1000.)
    (match d.first_desync_ms with None -> "-" | Some t -> Printf.sprintf "%.1f s" (t /. 1000.))

(* ---------------- Extensions beyond the paper ---------------- *)

let extensions () =
  section
    "Extension protocols (beyond Table I) — Tendermint and Sync HotStuff\n\
     across the four network environments of Fig 3 (per-decision latency, s)";
  Printf.printf "  %-14s" "protocol";
  List.iter (fun (name, _) -> Printf.printf " %17s" name) Core.Experiments.network_environments;
  Printf.printf "\n";
  List.iter
    (fun protocol ->
      Printf.printf "  %-14s" protocol;
      List.iter
        (fun (_, delay) ->
          let latency, _, live_fail, _ =
            latency_summary (Core.Experiments.fig3_config ~protocol ~delay ~seed:1)
          in
          Format.printf " %a%s" pp_mean_std (seconds latency) (if live_fail > 0 then "!" else " "))
        Core.Experiments.network_environments;
      Format.printf "@?";
      Printf.printf "\n%!")
    Core.Experiments.extension_protocols;
  Printf.printf
    "  note: sync-hotstuff assumes delays <= lambda = 1000 ms; the two\n\
    \  rightmost environments violate that assumption, so it stalls ('!') —\n\
    \  the same reason the paper excludes synchronous protocols from Fig 5.\n" 

let throughput_extension () =
  section
    "Throughput extension (paper §III-A3) — decided values per second when\n\
     per-message crypto costs are charged to sequential per-node CPUs\n\
     (20 decisions, delays N(50,10))";
  Printf.printf "  %-12s %-6s %14s %14s %14s\n" "protocol" "n" "no costs" "commodity" "rsa2048";
  List.iter
    (fun protocol ->
      List.iter
        (fun n ->
          Printf.printf "  %-12s %-6d" protocol n;
          List.iter
            (fun costs ->
              let config =
                Core.Config.make protocol ~n ~seed:1 ~decisions_target:20 ~costs
                  ~delay:(Net.Delay_model.normal ~mu:50. ~sigma:10.)
              in
              let r = Core.Controller.run config in
              Printf.printf " %10.2f/s   " (Core.Controller.throughput r))
            [ Core.Cost_model.zero; Core.Cost_model.commodity; Core.Cost_model.rsa2048 ];
          Printf.printf "\n%!")
        [ 16; 32; 64 ])
    [ "pbft"; "hotstuff-ns" ]

let ablation_pacemaker () =
  section
    "Ablation — HotStuff+NS naive-synchronizer reset policy (DESIGN.md §3.5):\n\
     when the view-doubling back-off resets changes which paper pathologies\n\
     appear (times in s, single seed)";
  let policies =
    [
      ("reset-on-commit", Bftsim_protocols.Context.Reset_on_commit);
      ("never-reset", Bftsim_protocols.Context.Never_reset);
      ("per-view-number", Bftsim_protocols.Context.Per_view_number);
    ]
  in
  Printf.printf "  %-18s %16s %16s %16s\n" "policy" "fig5 (l=150)" "fig7 (5 crash)" "fig6 partition";
  List.iter
    (fun (name, policy) ->
      (* The knob is per-run configuration, not a global: override the field. *)
      let with_policy config = { config with Core.Config.naive_reset = policy } in
      let t1 =
        (Core.Controller.run
           (with_policy (Core.Experiments.fig5_config ~protocol:"hotstuff-ns" ~lambda_ms:150. ~seed:1)))
          .Core.Controller.per_decision_latency_ms /. 1000.
      in
      let t2 =
        (Core.Controller.run
           (with_policy (Core.Experiments.fig7_config ~protocol:"hotstuff-ns" ~failstop:5 ~seed:1)))
          .Core.Controller.per_decision_latency_ms /. 1000.
      in
      let t3 =
        (Core.Controller.run (with_policy (Core.Experiments.fig6_config ~protocol:"hotstuff-ns" ~seed:1)))
          .Core.Controller.time_ms /. 1000.
      in
      Printf.printf "  %-18s %14.2f %16.2f %16.1f\n%!" name t1 t2 t3)
    policies

let chaos_suite () =
  section
    (Printf.sprintf
       "Chaos sweep — crash the f=%d highest-numbered nodes at t=0, restart\n\
        them at %.0f s, watchdog armed at %g*lambda; whether the restarted\n\
        replicas manage to rejoin (there is no state transfer) separates the\n\
        protocols: 'reached-target' means they caught up, 'stalled' means\n\
        the survivors decided but the restarts never did"
       (Bftsim_protocols.Quorum.max_faulty Core.Experiments.default_n)
       (Core.Experiments.chaos_gst_ms /. 1000.)
       Core.Experiments.chaos_watchdog);
  Printf.printf "  %-14s %-28s %14s %12s %10s\n" "protocol" "outcome" "decided at (s)" "violations"
    "msgs";
  List.iter
    (fun protocol ->
      let r = Core.Controller.run (Core.Experiments.chaos_config ~protocol ~seed:1) in
      Printf.printf "  %-14s %-28s %14.1f %12d %10.0f\n%!" protocol
        (Format.asprintf "%a" Core.Controller.pp_outcome r.outcome)
        (r.time_ms /. 1000.)
        (List.length r.violations) r.per_decision_messages)
    Core.Experiments.all_protocols;
  section
    "Chaos overload — crash f+1 nodes forever (beyond every tolerance\n\
     bound); without the watchdog these runs burn to the event cap or the\n\
     time cap, with it they abort as 'stalled' as soon as the plan is spent"
  ;
  Printf.printf "  %-14s %-34s %14s\n" "protocol" "outcome" "aborted at (s)";
  List.iter
    (fun protocol ->
      let r = Core.Controller.run (Core.Experiments.chaos_overload_config ~protocol ~seed:1) in
      Printf.printf "  %-14s %-34s %14.1f\n%!" protocol
        (Format.asprintf "%a" Core.Controller.pp_outcome r.outcome)
        (r.time_ms /. 1000.))
    [ "pbft"; "hotstuff-ns"; "librabft"; "algorand" ];
  section
    (Printf.sprintf
       "Chaos turbulence — 10%% loss + 500 ms delay spikes + 5%% duplication\n\
        until GST at %.0f s, then the delay model shifts to N(100,20)"
       (Core.Experiments.chaos_gst_ms /. 1000.));
  Printf.printf "  %-14s %-28s %14s %12s\n" "protocol" "outcome" "decided at (s)" "violations";
  List.iter
    (fun protocol ->
      let r = Core.Controller.run (Core.Experiments.chaos_turbulence_config ~protocol ~seed:1) in
      Printf.printf "  %-14s %-28s %14.1f %12d\n%!" protocol
        (Format.asprintf "%a" Core.Controller.pp_outcome r.outcome)
        (r.time_ms /. 1000.)
        (List.length r.violations))
    Core.Experiments.partially_synchronous

(* ---------------- Telemetry overhead ---------------- *)

let obs_overhead () =
  section
    "Telemetry overhead (lib/obs) — wall time of one PBFT run (150 decisions,\n\
     N(250,50)) with telemetry off, metrics on, and metrics+tracing on.\n\
     The off/off row is the measurement noise floor: with both switches off\n\
     every probe is a store into a dead cell, so the off column IS the\n\
     disabled-path cost";
  let config =
    {
      (Core.Experiments.fig3_config ~protocol:"pbft"
         ~delay:(Net.Delay_model.normal ~mu:250. ~sigma:50.)
         ~seed:1)
      with
      Core.Config.decisions_target = 150;
      max_time_ms = 3_600_000.;
    }
  in
  let with_telemetry ~metrics ~tracing config =
    { config with Core.Config.telemetry = { Core.Config.metrics; tracing; trace_capacity = 65536 } }
  in
  (* Interleaved rounds after warm-up — one run of each configuration per
     iteration, so drift (thermal, GC heap shape) hits all columns alike —
     summarized by the median, which shrugs off scheduler spikes. *)
  let configs =
    [|
      with_telemetry ~metrics:false ~tracing:false config;
      with_telemetry ~metrics:false ~tracing:false config;
      with_telemetry ~metrics:true ~tracing:false config;
      with_telemetry ~metrics:true ~tracing:true config;
    |]
  in
  let rounds = 7 in
  let samples = Array.map (fun c -> ignore (Core.Controller.run c); ref []) configs in
  for _ = 1 to rounds do
    Array.iteri
      (fun i c -> samples.(i) := fst (Core.Controller.wall_clock_of_run c) :: !(samples.(i)))
      configs
  done;
  let median i = (Core.Stats.of_list !(samples.(i))).Core.Stats.median in
  let off_a = median 0 and off_b = median 1 in
  let metrics_t = median 2 and tracing_t = median 3 in
  let off = Float.min off_a off_b in
  let noise_pct = (Float.max off_a off_b /. off -. 1.) *. 100. in
  let metrics_pct = (metrics_t /. off -. 1.) *. 100. in
  let tracing_pct = (tracing_t /. off -. 1.) *. 100. in
  Printf.printf "  %-22s %10.3f ms\n" "telemetry off" (off *. 1000.);
  Printf.printf "  %-22s %10.3f ms  (%+.1f%% — measurement noise)\n" "telemetry off (again)"
    (Float.max off_a off_b *. 1000.)
    noise_pct;
  Printf.printf "  %-22s %10.3f ms  (%+.1f%%)\n" "metrics on" (metrics_t *. 1000.) metrics_pct;
  Printf.printf "  %-22s %10.3f ms  (%+.1f%%)\n%!" "metrics + tracing" (tracing_t *. 1000.)
    tracing_pct;
  obs_overhead_record := Some (off, noise_pct, metrics_pct, tracing_pct)

(* ---------------- Supervision overhead ---------------- *)

let supervision_overhead () =
  section
    "Supervision overhead (DESIGN.md §3.13) — wall time of one PBFT run\n\
     (150 decisions, N(250,50)) bare, under Supervisor.supervise without a\n\
     deadline (wrapper cost only), and with a 60 s deadline (the event loop\n\
     polls the cancellation latch).  The deadline column is the price every\n\
     campaign run pays";
  let config =
    {
      (Core.Experiments.fig3_config ~protocol:"pbft"
         ~delay:(Net.Delay_model.normal ~mu:250. ~sigma:50.)
         ~seed:1)
      with
      Core.Config.decisions_target = 150;
      max_time_ms = 3_600_000.;
    }
  in
  let bare () = fst (Core.Controller.wall_clock_of_run config) in
  let supervised ~deadline_ms () =
    let policy = { Core.Supervisor.default_policy with deadline_ms; max_retries = 0 } in
    let t = Core.Supervisor.create ~policy () in
    let t0 = Unix.gettimeofday () in
    (match
       Core.Supervisor.supervise t ~key:"bench" (fun ~cancel ->
           Core.Runner.run_cancellable ~cancel config)
     with
    | Core.Supervisor.Ok _ -> ()
    | _ -> failwith "supervision kernel: the benchmark run must succeed");
    Unix.gettimeofday () -. t0
  in
  (* Interleaved rounds after warm-up, summarized by the median, as in the
     telemetry-overhead kernel: drift hits all columns alike. *)
  let kernels =
    [| bare; supervised ~deadline_ms:None; supervised ~deadline_ms:(Some 60_000.) |]
  in
  let rounds = 7 in
  let samples = Array.map (fun k -> ignore (k ()); ref []) kernels in
  for _ = 1 to rounds do
    Array.iteri (fun i k -> samples.(i) := k () :: !(samples.(i))) kernels
  done;
  let median i = (Core.Stats.of_list !(samples.(i))).Core.Stats.median in
  let bare_t = median 0 and wrap_t = median 1 and deadline_t = median 2 in
  let wrap_pct = (wrap_t /. bare_t -. 1.) *. 100. in
  let deadline_pct = (deadline_t /. bare_t -. 1.) *. 100. in
  Printf.printf "  %-26s %10.3f ms\n" "bare Controller.run" (bare_t *. 1000.);
  Printf.printf "  %-26s %10.3f ms  (%+.1f%%)\n" "supervised, no deadline" (wrap_t *. 1000.)
    wrap_pct;
  Printf.printf "  %-26s %10.3f ms  (%+.1f%%)\n%!" "supervised, 60 s deadline"
    (deadline_t *. 1000.) deadline_pct;
  supervision_overhead_record := Some (bare_t, wrap_pct, deadline_pct)

(* ---------------- Parallel runner speedup ---------------- *)

let speedup_pairs = 5

let speedup () =
  section
    "Parallel runner — wall time of a 20-rep PBFT sweep (100 decisions per\n\
     rep, so per-rep work amortizes the pool start-up), sequential vs the\n\
     domain pool, over 5 pairs in alternating order; the median ratio is the\n\
     speedup, and every pair's two summaries are checked identical\n\
     (determinism)";
  let config =
    {
      (Core.Experiments.fig3_config ~protocol:"pbft"
         ~delay:(Net.Delay_model.normal ~mu:250. ~sigma:50.)
         ~seed:1)
      with
      Core.Config.decisions_target = 100;
      max_time_ms = 3_600_000.;
    }
  in
  let time jobs =
    let t0 = Unix.gettimeofday () in
    let s = Core.Runner.run_many ~reps:20 ~jobs config in
    (Unix.gettimeofday () -. t0, s)
  in
  let fingerprint (s : Core.Runner.summary) =
    List.map
      (fun (r : Core.Controller.result) ->
        (r.per_decision_latency_ms, r.per_decision_messages, r.outcome))
      s.results
  in
  let par_jobs = effective_jobs () in
  (* One pair moves by more than the margin a floor can allow on a shared
     host (0.735-1.258 over eight single-pair readings of one tree), so
     the ratio is the median of several.  Odd pairs run the pool first, so
     an order effect (a warm heap, the pool's start-up) does not fall on
     the same side every time. *)
  let pair i =
    let (seq_t, seq_s), (par_t, par_s) =
      if i land 1 = 0 then
        let s = time 1 in
        (s, time par_jobs)
      else
        let p = time par_jobs in
        (time 1, p)
    in
    let identical =
      fingerprint seq_s = fingerprint par_s && seq_s.latency_ms = par_s.latency_ms
      && seq_s.messages = par_s.messages
    in
    if not identical then failwith "speedup kernel: parallel summary diverged from sequential";
    let ratio = seq_t /. Float.max par_t 1e-9 in
    Printf.printf "  jobs=1 %8.3f s   jobs=%-3d %8.3f s   %6.2fx\n%!" seq_t par_jobs par_t ratio;
    (seq_t, par_t, ratio)
  in
  let pairs = List.init speedup_pairs pair in
  let median f = (Core.Stats.of_list (List.map f pairs)).Core.Stats.median in
  let seq_t = median (fun (s, _, _) -> s) and par_t = median (fun (_, p, _) -> p) in
  let ratio = median (fun (_, _, r) -> r) in
  Printf.printf "  median   jobs=1 %8.3f s   jobs=%-3d %8.3f s   speedup %6.2fx\n%!" seq_t par_jobs
    par_t ratio;
  speedup_record := Some (seq_t, par_t, par_jobs, ratio)

(* ---------------- Per-event engine cost ---------------- *)

(* events/sec and minor words/event of one run — the two numbers the
   hot-path work of DESIGN.md §3.15 moves — on four kernels: the speedup
   kernel's configuration (PBFT n=20, 100 decisions), a Fig 2 point (PBFT
   n=256, one decision), whose n^2 broadcast rounds load the delivery path
   the arrival calendar serves, and a workload load point (HotStuff-NS n=16,
   geo5, 100 Mbps, pipeline 4, 4,000 req/s), the one kernel whose client
   arrivals, batch timers and commit acks go through the workload driver's
   context wrappers and [Controller.schedule], and a recovery run (PBFT
   n=16 over lossy links and the reliable channel with metrics on, one
   replica crashed and restarted), the one kernel whose loss draws,
   frames, acks and retransmission alarms cross DESIGN.md §3.17's channel.
   Minor words come from
   Gc.minor_words () around the run, so the figure includes protocol
   allocation (payloads), not just the engine: it is an end-to-end
   per-event budget, exact and repeatable on one domain.  Gc.quick_stat
   would not do: in OCaml 5 its minor_words advances only at minor
   collections, so its delta counts whole minor heaps, not the words
   allocated. *)
type event_cost = {
  kernel : string;
  events : int;
  wall_s : float;
  minor_words : float;
  events_per_sec : float;
  words_per_event : float;
}

let event_cost_record : (event_cost * event_cost * event_cost * event_cost) option ref = ref None

let measure_event_cost kernel run =
  (* Warm-up run so lane growth and code paths are resident. *)
  ignore (run () : Core.Controller.result);
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = run () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let events = r.Core.Controller.events_processed in
  let c =
    {
      kernel;
      events;
      wall_s;
      minor_words;
      events_per_sec = float_of_int events /. Float.max wall_s 1e-9;
      words_per_event = minor_words /. float_of_int (Stdlib.max events 1);
    }
  in
  Printf.printf "  %s\n" kernel;
  Printf.printf "    events            %10d\n" c.events;
  Printf.printf "    wall time         %10.4f s\n" c.wall_s;
  Printf.printf "    events/sec        %10.0f\n" c.events_per_sec;
  Printf.printf "    minor words       %10.0f\n" c.minor_words;
  Printf.printf "    minor words/event %10.1f\n%!" c.words_per_event;
  c

let event_cost () =
  section
    "Per-event engine cost — PBFT n=20 (100 decisions), PBFT n=256 (one\n\
     decision, Fig 2), a HotStuff-NS n=16 workload load point at 4,000\n\
     req/s and a PBFT n=16 recovery run (loss, reliable channel, a restart):\n\
     wall time, events/second and GC minor words per event";
  let config =
    {
      (Core.Experiments.fig3_config ~protocol:"pbft"
         ~delay:(Net.Delay_model.normal ~mu:250. ~sigma:50.)
         ~seed:1)
      with
      Core.Config.decisions_target = 100;
      max_time_ms = 3_600_000.;
    }
  in
  let run config () = Core.Controller.run config in
  let base = measure_event_cost "pbft-n20-100dec" (run config) in
  let fig2 = measure_event_cost "pbft-n256-1dec" (run (Core.Experiments.fig2_config ~n:256)) in
  let load_config =
    Core.Config.make "hotstuff-ns" ~n:16 ~seed:1 ~lambda_ms:600.
      ~delay:(Net.Delay_model.normal ~mu:20. ~sigma:5.)
      ~zones:"geo5" ~bandwidth_mbps:100. ~pipeline:4 ~decisions_target:50
  in
  let driver =
    Wl.Driver.make
      ~arrival:(Wl.Arrival.poisson ~rate:1.)
      ~policy:(Wl.Batch.make ~max_batch:256 ~max_wait_ms:30.)
      ~mempool_capacity:4096 ()
  in
  let load_point =
    measure_event_cost "hotstuff-ns-n16-geo5-4000rps" (fun () ->
        let _point, _audit, r = Wl.Driver.run_point_audit driver ~rate:4000. load_config in
        r)
  in
  let recovery_config =
    Core.Config.make "pbft" ~n:16 ~seed:1 ~lambda_ms:200.
      ~delay:(Net.Delay_model.normal ~mu:50. ~sigma:10.)
      ~decisions_target:30 ~max_time_ms:120_000.
      ~loss:(Net.Loss_model.make ~drop:0.05 ~dup:0.01 ~reorder_ms:50. ())
      ~reliable:true
      ~chaos:
        (Bftsim_attack.Fault_schedule.crash_and_restart ~nodes:[ 5 ] ~crash_ms:1000.
           ~restart_ms:2500.)
      ~telemetry:{ Core.Config.default_telemetry with metrics = true }
  in
  let recovery = measure_event_cost "pbft-n16-loss-reliable-restart" (run recovery_config) in
  event_cost_record := Some (base, fig2, load_point, recovery)

(* ---------------- Workload throughput ---------------- *)

(* The lib/workload curve (DESIGN.md §3.16): open-loop Poisson clients,
   batched heights, end-to-end request latency.  The record keeps the
   whole curve plus the saturation knee, for --json. *)
let load_record : (Wl.Driver.curve * Wl.Driver.point option) option ref = ref None

let load_throughput () =
  section
    "Workload throughput — open-loop Poisson clients into PBFT n=4\n\
     (batch 64@20ms, mempool 4096, lambda=200, N(20,5), 30 heights per\n\
     point); committed req/s plateaus at the saturation knee while the\n\
     offered rate keeps climbing";
  let config =
    Core.Config.make ~n:4 ~lambda_ms:200.
      ~delay:(Net.Delay_model.normal ~mu:20. ~sigma:5.)
      ~decisions_target:30 ~seed:1 "pbft"
  in
  let t =
    Wl.Driver.make
      ~arrival:(Wl.Arrival.poisson ~rate:1.)
      ~policy:(Wl.Batch.make ~max_batch:64 ~max_wait_ms:20.)
      ~mempool_capacity:4096 ()
  in
  let rates = [ 400.; 1600.; 6400.; 12800.; 25600. ] in
  let curve = Wl.Driver.sweep ?jobs:!jobs t config ~rates in
  Format.printf "%a@?" Wl.Driver.pp_curve curve;
  Printf.printf "%!";
  load_record := Some (curve, Wl.Driver.knee curve.Wl.Driver.points)

(* ---------------- Chained pipelining ---------------- *)

(* (protocol, depth-1 tput, depth-4 tput, ratio) per protocol, for --json.
   The PR-9 gate is the hotstuff-ns ratio >= 2. *)
let chained_pipeline_record : (string * float * float * float) list ref = ref []

let chained_pipeline () =
  section
    "Chained pipelining — saturated committed req/s at pipeline depth 1 vs 4\n\
     (n=4, lambda=200, N(20,5), batch 64@20ms, 20 heights, offered 4000/s).\n\
     Chained protocols pack [depth] batch chunks into each block, so one\n\
     three-chain commit lands a whole window; PBFT instead widens its slot\n\
     window, overlapping independent instances";
  Printf.printf "  %-14s %14s %14s %10s\n" "protocol" "depth 1" "depth 4" "ratio";
  chained_pipeline_record := [];
  List.iter
    (fun protocol ->
      let tput pipeline =
        let config =
          Core.Config.make protocol ~n:4 ~lambda_ms:200.
            ~delay:(Net.Delay_model.normal ~mu:20. ~sigma:5.)
            ~decisions_target:20 ~seed:1 ~pipeline
        in
        let t =
          Wl.Driver.make
            ~arrival:(Wl.Arrival.poisson ~rate:1.)
            ~policy:(Wl.Batch.make ~max_batch:64 ~max_wait_ms:20.)
            ~mempool_capacity:4096 ()
        in
        let p, _ = Wl.Driver.run_point t ~rate:4000. config in
        p.Wl.Driver.throughput
      in
      let t1 = tput 1 and t4 = tput 4 in
      let ratio = t4 /. Float.max t1 1e-9 in
      chained_pipeline_record := (protocol, t1, t4, ratio) :: !chained_pipeline_record;
      Printf.printf "  %-14s %12.1f/s %12.1f/s %9.2fx\n%!" protocol t1 t4 ratio)
    [ "hotstuff-ns"; "librabft"; "tendermint"; "pbft" ];
  chained_pipeline_record := List.rev !chained_pipeline_record

(* ---------------- Recovery overhead ---------------- *)

(* (protocol, clean_s, lossy_s, chaos_s, catchup_ms, retrans) per protocol,
   for --json.  The PR-10 gate is that every chaos run reaches its target. *)
let recovery_record : (string * float * float * float * float * int) list ref = ref []

let recovery_overhead () =
  section
    "Recovery overhead — simulated time (s) to 30 decisions for the\n\
     protocols with a recovery story: clean network, 5% loss over the\n\
     reliable channel, and the same loss with node 2 crashed at 0.5 s and\n\
     restarted at 2 s (WAL rehydration + state transfer).  'catchup' is how\n\
     long the restarted replica took to rejoin after its restart;\n\
     'retrans' counts reliable-channel retransmissions in the chaos run";
  Printf.printf "  %-14s %10s %10s %10s %10s %12s %9s\n" "protocol" "clean" "lossy" "chaos"
    "overhead" "catchup (ms)" "retrans";
  recovery_record := [];
  let counter_of r name =
    match r.Core.Controller.metrics with
    | None -> 0
    | Some m ->
      (match List.assoc_opt name (Bftsim_obs.Metrics.snapshot m) with
      | Some (Bftsim_obs.Metrics.Counter_v c) -> c
      | _ -> 0)
  in
  let catchup_of r =
    match r.Core.Controller.metrics with
    | None -> 0.
    | Some m ->
      (match List.assoc_opt "recovery.catchup_ms" (Bftsim_obs.Metrics.snapshot m) with
      | Some (Bftsim_obs.Metrics.Histogram_v h) -> h.Bftsim_obs.Metrics.s_sum
      | _ -> 0.)
  in
  List.iter
    (fun protocol ->
      let base =
        {
          (Core.Config.make protocol ~n:7 ~seed:1 ~decisions_target:30 ~lambda_ms:200.
             ~delay:(Net.Delay_model.normal ~mu:50. ~sigma:10.))
          with
          Core.Config.telemetry =
            { Core.Config.default_telemetry with Core.Config.metrics = true };
          max_time_ms = 600_000.;
        }
      in
      let lossy =
        {
          base with
          Core.Config.loss = Net.Loss_model.make ~drop:0.05 ();
          reliable = true;
        }
      in
      let chaos =
        {
          lossy with
          Core.Config.chaos =
            Attack.Fault_schedule.crash_and_restart ~nodes:[ 2 ] ~crash_ms:500.
              ~restart_ms:2_000.;
        }
      in
      let run config =
        let r = Core.Controller.run config in
        if r.Core.Controller.outcome <> Core.Controller.Reached_target then
          failwith
            (Printf.sprintf "recovery kernel: %s did not reach its decision target" protocol);
        r
      in
      let clean_r = run base and lossy_r = run lossy and chaos_r = run chaos in
      let s r = r.Core.Controller.time_ms /. 1000. in
      let catchup = catchup_of chaos_r and retrans = counter_of chaos_r "net.retrans" in
      recovery_record :=
        (protocol, s clean_r, s lossy_r, s chaos_r, catchup, retrans) :: !recovery_record;
      Printf.printf "  %-14s %9.2fs %9.2fs %9.2fs %9.2fx %12.1f %9d\n%!" protocol (s clean_r)
        (s lossy_r) (s chaos_r)
        (s chaos_r /. Float.max (s clean_r) 1e-9)
        catchup retrans)
    [ "pbft"; "hotstuff-ns"; "librabft" ];
  recovery_record := List.rev !recovery_record

(* ---------------- JSON report ---------------- *)

let write_json path =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"bftsim-bench-1\",\n";
  out "  \"reps\": %d,\n" reps;
  out "  \"jobs\": %d,\n" (effective_jobs ());
  out "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  (match !speedup_record with
  | Some (seq_t, par_t, par_jobs, ratio) ->
    (* The pr2 fields compare against the same kernel as recorded in
       BENCH_pr2.json (seq 1.628 s, par 3.307 s at 4 jobs — a 0.49x
       "speedup" caused by oversubscribing domains past the hardware);
       [vs_pr2_par] is how much faster the parallel path itself got. *)
    let pr2_seq = 1.627905 and pr2_par = 3.307015 in
    out
      "  \"run_many_speedup\": { \"kernel\": \"pbft-20rep-sweep\", \"pairs\": %d, \"seq_s\": \
       %.6f, \"par_s\": %.6f, \"par_jobs\": %d, \"speedup\": %.3f, \"host_domains\": %d, \"pr2_seq_s\": %.6f, \
       \"pr2_par_s\": %.6f, \"vs_pr2_seq\": %.3f, \"vs_pr2_par\": %.3f },\n"
      speedup_pairs seq_t par_t par_jobs ratio
      (Domain.recommended_domain_count ())
      pr2_seq pr2_par (pr2_seq /. Float.max par_t 1e-9)
      (pr2_par /. Float.max par_t 1e-9)
  | None -> ());
  (match !event_cost_record with
  | Some (base, fig2, lp, rc) ->
    out
      "  \"event_cost\": { \"kernel\": \"%s\", \"events\": %d, \"wall_s\": %.6f, \
       \"events_per_sec\": %.0f, \"minor_words_per_event\": %.1f, \"fig2\": { \"kernel\": \
       \"%s\", \"events\": %d, \"wall_s\": %.6f, \"events_per_sec\": %.0f, \"minor_words\": \
       %.0f, \"minor_words_per_event\": %.2f }, \"load_point\": { \"kernel\": \"%s\", \
       \"events\": %d, \"wall_s\": %.6f, \"events_per_sec\": %.0f, \"minor_words\": %.0f, \
       \"minor_words_per_event\": %.2f }, \"recovery\": { \"kernel\": \"%s\", \"events\": \
       %d, \"wall_s\": %.6f, \"events_per_sec\": %.0f, \"minor_words\": %.0f, \
       \"minor_words_per_event\": %.2f } },\n"
      base.kernel base.events base.wall_s base.events_per_sec base.words_per_event fig2.kernel
      fig2.events fig2.wall_s fig2.events_per_sec fig2.minor_words fig2.words_per_event lp.kernel
      lp.events lp.wall_s lp.events_per_sec lp.minor_words lp.words_per_event rc.kernel rc.events
      rc.wall_s rc.events_per_sec rc.minor_words rc.words_per_event
  | None -> ());
  (match !obs_overhead_record with
  | Some (off_s, noise_pct, metrics_pct, tracing_pct) ->
    out
      "  \"obs_overhead\": { \"kernel\": \"pbft-150dec\", \"off_s\": %.6f, \"noise_pct\": %.2f, \
       \"metrics_pct\": %.2f, \"tracing_pct\": %.2f },\n"
      off_s noise_pct metrics_pct tracing_pct
  | None -> ());
  (match !supervision_overhead_record with
  | Some (bare_s, wrap_pct, deadline_pct) ->
    out
      "  \"supervision_overhead\": { \"kernel\": \"pbft-150dec\", \"bare_s\": %.6f, \
       \"wrap_pct\": %.2f, \"deadline_pct\": %.2f },\n"
      bare_s wrap_pct deadline_pct
  | None -> ());
  (match List.rev !fig2_record with
  | [] -> ()
  | rows ->
    out "  \"fig2_extended\": { \"kernel\": \"pbft-l1000-N(250,50)\", \"points\": [\n";
    List.iteri
      (fun i (n, samples, wall_s) ->
        out "    { \"n\": %d, \"samples\": %d, \"wall_s\": %.6f }%s\n" n samples wall_s
          (if i = List.length rows - 1 then "" else ","))
      rows;
    out "  ] },\n");
  (match !load_record with
  | Some (curve, knee) ->
    out "  \"load_throughput\": { \"kernel\": \"pbft-n4-poisson-sweep\"";
    (match knee with
    | Some k ->
      out ", \"knee_rate\": %g, \"knee_throughput\": %.1f" k.Wl.Driver.rate
        k.Wl.Driver.throughput
    | None -> ());
    out ", \"curve\": %s },\n" (Bftsim_obs.Json.to_string (Wl.Driver.curve_to_json curve))
  | None -> ());
  (match !recovery_record with
  | [] -> ()
  | rows ->
    out "  \"recovery_overhead\": { \"kernel\": \"n7-30dec-loss5-crash500-restart2000\", \"rows\": [\n";
    List.iteri
      (fun i (protocol, clean_s, lossy_s, chaos_s, catchup_ms, retrans) ->
        out
          "    { \"protocol\": %S, \"clean_s\": %.4f, \"lossy_s\": %.4f, \"chaos_s\": %.4f, \
           \"catchup_ms\": %.1f, \"retrans\": %d }%s\n"
          protocol clean_s lossy_s chaos_s catchup_ms retrans
          (if i = List.length rows - 1 then "" else ","))
      rows;
    out "  ] },\n");
  (match !chained_pipeline_record with
  | [] -> ()
  | rows ->
    out "  \"chained_pipeline\": { \"kernel\": \"n4-sat4000-depth1v4\", \"rows\": [\n";
    List.iteri
      (fun i (protocol, t1, t4, ratio) ->
        out
          "    { \"protocol\": %S, \"depth1_tput\": %.1f, \"depth4_tput\": %.1f, \"ratio\": %.2f \
           }%s\n"
          protocol t1 t4 ratio
          (if i = List.length rows - 1 then "" else ","))
      rows;
    out "  ] },\n");
  out "  \"kernels\": [\n";
  let rows = List.rev !timings in
  List.iteri
    (fun i (name, wall_s) ->
      out "    { \"name\": %S, \"wall_s\": %.6f }%s\n" name wall_s
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n%!" path

(* ---------------- Bechamel kernels ---------------- *)

let bechamel_kernels () =
  let open Bechamel in
  let open Toolkit in
  section
    "Bechamel — wall-time micro-benchmarks, one Test.make per table/figure\n\
     kernel (cost of one simulated run of that experiment)";
  let one name thunk = Test.make ~name (Staged.stage thunk) in
  let delay = Net.Delay_model.normal ~mu:250. ~sigma:50. in
  let tests =
    Test.make_grouped ~name:"bftsim"
      [
        one "table1-loc-inventory" (fun () ->
            match Core.Loc_count.find_root () with
            | Some root -> ignore (Core.Loc_count.table1 ~root)
            | None -> ());
        one "table2-loc-inventory" (fun () ->
            match Core.Loc_count.find_root () with
            | Some root -> ignore (Core.Loc_count.table2 ~root)
            | None -> ());
        one "fig2-ours-n32" (fun () ->
            ignore (Core.Controller.run (Core.Experiments.fig2_config ~n:32)));
        one "fig2-baseline-n8" (fun () -> ignore (B.Engine.run ~n:8 ~seed:1 ()));
        one "fig3-pbft-N(250,50)" (fun () ->
            ignore (Core.Controller.run (Core.Experiments.fig3_config ~protocol:"pbft" ~delay ~seed:1)));
        one "fig4-algorand-l3000" (fun () ->
            ignore
              (Core.Controller.run
                 (Core.Experiments.fig4_config ~protocol:"algorand" ~lambda_ms:3000. ~seed:1)));
        one "fig5-hotstuff-l150" (fun () ->
            ignore
              (Core.Controller.run
                 (Core.Experiments.fig5_config ~protocol:"hotstuff-ns" ~lambda_ms:150. ~seed:1)));
        one "fig6-librabft-partition" (fun () ->
            ignore (Core.Controller.run (Core.Experiments.fig6_config ~protocol:"librabft" ~seed:1)));
        one "fig7-pbft-failstop5" (fun () ->
            ignore
              (Core.Controller.run (Core.Experiments.fig7_config ~protocol:"pbft" ~failstop:5 ~seed:1)));
        one "fig8-addv2-adaptive" (fun () ->
            ignore
              (Core.Controller.run
                 (Core.Experiments.fig8_adaptive_config ~protocol:"add-v2" ~f:3 ~seed:1)));
        one "fig9-viewtrace" (fun () ->
            ignore (Core.Controller.run (Core.Experiments.fig9_config ~seed:9)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name v acc ->
        match Analyze.OLS.estimates v with
        | Some (est :: _) -> (name, est) :: acc
        | _ -> (name, Float.nan) :: acc)
      results []
  in
  List.iter (fun (name, ns) -> Printf.printf "  %-40s %12.3f ms/run\n" name (ns /. 1e6))
    (List.sort compare rows)

let () =
  Core.Parallel.tune_gc ();
  Printf.printf "BFT simulator benchmark harness — %d repetitions per configuration\n" reps;
  Printf.printf "(set BFTSIM_REPS to change; the paper uses 100); jobs=%d\n%!" (effective_jobs ());
  (* The extended Fig 2 axis reaches n=4096; --quick caps it at 512 so
     the CI smoke stays in budget (override with --fig2-max). *)
  let fig2_cap = match !fig2_max with Some n -> n | None -> if !quick then 512 else 4096 in
  if !quick then begin
    (* CI smoke: the LoC tables (cheap), the capped Fig 2 sweep, the
       workload-throughput kernel, the parallel-runner kernel, the
       per-event cost kernel and the telemetry-overhead kernel. *)
    timed "tables" tables;
    timed "fig2" (fig2 ~max_n:fig2_cap);
    timed "load-throughput" load_throughput;
    timed "chained-pipeline" chained_pipeline;
    timed "recovery-overhead" recovery_overhead;
    timed "obs-overhead" obs_overhead;
    timed "supervision-overhead" supervision_overhead;
    timed "event-cost" event_cost;
    timed "run_many-speedup" speedup
  end
  else begin
    timed "tables" tables;
    timed "fig2" (fig2 ~max_n:fig2_cap);
    timed "load-throughput" load_throughput;
    timed "chained-pipeline" chained_pipeline;
    timed "fig3" fig3;
    timed "fig4" fig4;
    timed "fig5" fig5;
    timed "fig6" fig6;
    timed "fig7" fig7;
    timed "fig8" fig8;
    timed "fig9" fig9;
    timed "extensions" extensions;
    timed "throughput-extension" throughput_extension;
    timed "ablation-pacemaker" ablation_pacemaker;
    timed "chaos-suite" chaos_suite;
    timed "recovery-overhead" recovery_overhead;
    timed "obs-overhead" obs_overhead;
    timed "supervision-overhead" supervision_overhead;
    timed "event-cost" event_cost;
    timed "run_many-speedup" speedup;
    timed "bechamel-kernels" bechamel_kernels
  end;
  Option.iter write_json !json_file;
  Printf.printf "\nAll experiments completed.\n"
