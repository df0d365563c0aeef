(* Chaos study: the declarative fault-schedule DSL end to end.

   Three escalating scenarios on PBFT, then a cross-protocol comparison:

   1. crash-and-recover — fail-stop f nodes at t=0, restart them at 15 s.
     The survivors keep deciding; whether the restarts rejoin (there is
     no state transfer) is the measurement.
   2. overload — crash f+1 nodes forever.  No quorum can form, so without
     a watchdog the run burns to its time cap; with one it aborts as
     'stalled' as soon as the fault plan has no more relief scheduled.
   3. turbulence — 15 s of 10% loss, 500 ms delay spikes and 5%
     duplication, then a GST shift to a fast stable delay model.

   Every schedule is plain data: the same value drives the wire's message
   verdicts and loss windows, the controller's timer suppression and
   watchdog, and the online invariant monitors — and because all chaos
   randomness comes from the wire's seeded loss stream, each run replays
   deterministically.

   Run with: dune exec examples/chaos_study.exe *)

module Core = Bftsim_core
module Net = Bftsim_net
module Fault_schedule = Bftsim_attack.Fault_schedule

let f = Bftsim_protocols.Quorum.max_faulty Core.Experiments.default_n

let report label (r : Core.Controller.result) =
  Format.printf "  %-22s %-30s decided-at %6.1f s  violations %d@." label
    (Format.asprintf "%a" Core.Controller.pp_outcome r.outcome)
    (r.time_ms /. 1000.)
    (List.length r.violations)

let crash_and_recover () =
  Format.printf "@.1. Crash-and-recover on PBFT (f=%d nodes down from 0 s to 15 s):@." f;
  let chaos =
    Fault_schedule.crash_and_recover
      ~nodes:(List.init f (fun i -> Core.Experiments.default_n - 1 - i))
      ~crash_ms:0. ~recover_ms:15_000.
  in
  Format.printf "  schedule: %s@." (Fault_schedule.describe chaos);
  let config = Core.Config.make "pbft" ~seed:7 ~decisions_target:1 ~chaos ~watchdog:10. in
  report "pbft" (Core.Controller.run config)

let overload () =
  Format.printf
    "@.2. Overload — crash f+1=%d nodes forever; the watchdog converts the@.\
    \   inevitable non-termination into 'stalled' within 10*lambda:@."
    (f + 1);
  let chaos =
    List.map
      (fun i ->
        { Fault_schedule.at_ms = 0.; action = Fault_schedule.Crash (Core.Experiments.default_n - 1 - i) })
      (List.init (f + 1) Fun.id)
  in
  List.iter
    (fun (label, watchdog) ->
      let config = Core.Config.make "pbft" ~seed:7 ~decisions_target:1 ~chaos ?watchdog in
      report label (Core.Controller.run config))
    [ ("without watchdog", None); ("watchdog 10*lambda", Some 10.) ]

let turbulence () =
  Format.printf "@.3. Turbulence until GST at 15 s, then N(100,20) — parsed from the CLI syntax:@.";
  let spec = "loss:0.1@0-15000;spike:500@0-15000;dup:0.05@0-15000;gst:normal:100,20@15000" in
  Format.printf "  --chaos \"%s\"@." spec;
  let chaos =
    match Fault_schedule.of_string spec with Ok plan -> plan | Error e -> failwith e
  in
  let config =
    Core.Config.make "pbft" ~seed:7 ~decisions_target:1 ~chaos ~watchdog:10.
      ~delay:(Net.Delay_model.normal ~mu:500. ~sigma:200.)
  in
  report "pbft" (Core.Controller.run config)

let cross_protocol () =
  Format.printf "@.4. The canonical crash-and-recover scenario across all eight protocols:@.";
  List.iter
    (fun protocol ->
      report protocol (Core.Controller.run (Core.Experiments.chaos_config ~protocol ~seed:7)))
    Core.Experiments.all_protocols;
  Format.printf
    "@.'reached-target' protocols re-integrated their restarted replicas;@.\
     'stalled' ones kept the survivors live but the restarts never caught@.\
     up — the cost of recovery without state transfer.@."

let () =
  crash_and_recover ();
  overload ();
  turbulence ();
  cross_protocol ()
