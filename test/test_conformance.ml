(* Tests for the conformance subsystem: protocol oracles, the randomized
   scenario generator, counterexample shrinking, repro bundles, and the
   mutation hook the CI smoke step relies on. *)

module Core = Bftsim_core
module Conf = Bftsim_conformance
module Net = Bftsim_net
module Protocols = Bftsim_protocols

let clean_config ?(protocol = "pbft") ?(n = 8) ?(seed = 1) () =
  Core.Config.make protocol ~n ~seed ~delay:(Net.Delay_model.Constant 50.)

let run config = Core.Controller.run { config with Core.Config.record_trace = true }

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

(* --- Oracles --- *)

let test_oracle_clean_run () =
  let config = clean_config () in
  let verdicts = Conf.Oracle.check_result config (run config) in
  Alcotest.(check int) "no verdicts on a clean pbft run" 0 (List.length verdicts)

let test_oracle_agreement_flags_divergence () =
  let config = clean_config () in
  let r = run config in
  let tampered =
    { r with Core.Controller.decisions = [ (0, [ "alpha" ]); (1, [ "beta" ]) ]; trace = None }
  in
  let verdicts = Conf.Oracle.agreement config tampered in
  Alcotest.(check bool) "divergent decisions flagged" true
    (List.exists (fun v -> v.Conf.Oracle.oracle = "agreement") verdicts)

let test_oracle_integrity_flags () =
  let config = clean_config ~n:8 () in
  let config = { config with Core.Config.crashed = [ 3 ] } in
  let r = run config in
  let dup = { r with Core.Controller.decisions = [ (0, [ "a" ]); (0, [ "a" ]) ]; trace = None } in
  Alcotest.(check bool) "duplicate node row flagged" true
    (List.exists (fun v -> v.Conf.Oracle.oracle = "integrity") (Conf.Oracle.integrity config dup));
  let crashed_decided =
    { r with Core.Controller.decisions = [ (3, [ "a" ]) ]; trace = None }
  in
  Alcotest.(check bool) "config-crashed decider flagged" true
    (List.exists
       (fun v -> v.Conf.Oracle.oracle = "integrity")
       (Conf.Oracle.integrity config crashed_decided))

let test_oracle_decide_once () =
  let config = clean_config ~protocol:"add-v1" ~n:8 () in
  let r = run config in
  let twice = { r with Core.Controller.decisions = [ (0, [ "v0"; "v0" ]) ]; trace = None } in
  Alcotest.(check bool) "double decision in one-shot consensus flagged" true
    (List.exists (fun v -> v.Conf.Oracle.oracle = "integrity") (Conf.Oracle.integrity config twice))

let test_oracle_validity_flags () =
  let config = clean_config () in
  let r = run config in
  let bogus = { r with Core.Controller.decisions = [ (0, [ "zzz/slot0" ]) ]; trace = None } in
  Alcotest.(check bool) "underived value flagged" true
    (List.exists (fun v -> v.Conf.Oracle.oracle = "validity") (Conf.Oracle.validity config bogus))

let test_oracle_validity_chained_exempt () =
  let config = clean_config ~protocol:"hotstuff-ns" () in
  let r = run config in
  Alcotest.(check int) "chained digests are not validity violations" 0
    (List.length (Conf.Oracle.validity config r))

let test_oracle_recovery () =
  let chaos =
    Bftsim_attack.Fault_schedule.crash_and_restart ~nodes:[ 2 ] ~crash_ms:200. ~restart_ms:700.
  in
  let config =
    Core.Config.make "pbft" ~n:7 ~seed:42 ~chaos ~delay:(Net.Delay_model.Constant 50.)
  in
  let r = Core.Controller.run config in
  Alcotest.(check int) "clean recovery accepted" 0 (List.length (Conf.Oracle.recovery config r));
  (* A restarted node whose catch-up rewrote history is flagged... *)
  let conflicting =
    {
      r with
      Core.Controller.decisions =
        List.map
          (fun (node, values) -> if node = 2 then (node, [ "bogus" ]) else (node, values))
          r.Core.Controller.decisions;
    }
  in
  Alcotest.(check bool) "conflicting re-commit flagged" true
    (List.exists
       (fun v -> contains ~needle:"committed" (Conf.Oracle.describe v))
       (Conf.Oracle.recovery config conflicting));
  (* ...and one stuck in a stale view never rejoined. *)
  let fv = Array.mapi (fun i _ -> if i = 2 then 0 else 10) r.Core.Controller.final_views in
  let stale = { r with Core.Controller.final_views = fv } in
  Alcotest.(check bool) "stale view flagged" true
    (List.exists
       (fun v -> contains ~needle:"never rejoined" (Conf.Oracle.describe v))
       (Conf.Oracle.recovery config stale));
  (* Without restart steps the oracle is inert even on tampered results. *)
  let norestart = Core.Config.make "pbft" ~n:7 ~seed:42 ~delay:(Net.Delay_model.Constant 50.) in
  Alcotest.(check int) "inert without restarts" 0
    (List.length (Conf.Oracle.recovery norestart conflicting))

let test_oracle_qc_sanity_clean () =
  for n = 4 to 40 do
    let verdicts = Conf.Oracle.qc_sanity ~n in
    Alcotest.(check int) (Printf.sprintf "qc-sanity holds at n=%d" n) 0 (List.length verdicts)
  done

let with_mutation m f =
  Protocols.Quorum.set_mutation (Some m);
  Fun.protect ~finally:(fun () -> Protocols.Quorum.set_mutation None) f

let test_oracle_qc_sanity_catches_mutation () =
  with_mutation Protocols.Quorum.Quorum_minus_one (fun () ->
      let verdicts = Conf.Oracle.qc_sanity ~n:10 in
      Alcotest.(check bool) "quorum-minus-one breaks intersection" true
        (List.exists (fun v -> v.Conf.Oracle.oracle = "qc-sanity") verdicts))

(* --- Scenario generation --- *)

let prop_scenarios_valid =
  QCheck.Test.make ~count:60 ~name:"generated scenarios are valid configs"
    QCheck.(make (Conf.Scenario.gen ()))
    (fun s ->
      Core.Config.validate s.Conf.Scenario.config;
      true)

let prop_scenarios_respect_model =
  QCheck.Test.make ~count:60 ~name:"synchronous protocols get bounded delays"
    QCheck.(make (Conf.Scenario.gen ()))
    (fun s ->
      let config = s.Conf.Scenario.config in
      let p = Protocols.Registry.find_exn config.Core.Config.protocol in
      match Protocols.Protocol_intf.model p with
      | Protocols.Protocol_intf.Synchronous -> (
        match Net.Delay_model.upper_bound config.Core.Config.delay with
        | Some b -> b <= config.Core.Config.lambda_ms
        | None -> false)
      | _ -> true)

let prop_scenarios_within_tolerance =
  QCheck.Test.make ~count:60 ~name:"crashed count stays within (n-1)/3"
    QCheck.(make (Conf.Scenario.gen ()))
    (fun s ->
      let config = s.Conf.Scenario.config in
      List.length config.Core.Config.crashed
      <= Protocols.Quorum.max_faulty config.Core.Config.n)

let test_scenario_sample_deterministic () =
  let a = Conf.Scenario.sample ~budget:10 ~seed:7 () in
  let b = Conf.Scenario.sample ~budget:10 ~seed:7 () in
  Alcotest.(check (list string)) "same seed, same batch"
    (List.map Conf.Scenario.describe a)
    (List.map Conf.Scenario.describe b);
  let c = Conf.Scenario.sample ~budget:10 ~seed:8 () in
  Alcotest.(check bool) "different seed, different batch" false
    (List.map Conf.Scenario.describe a = List.map Conf.Scenario.describe c)

let test_scenario_family_filter () =
  let batch =
    Conf.Scenario.sample ~families:[ Conf.Scenario.Failstop ] ~budget:20 ~seed:3 ()
  in
  List.iter
    (fun s ->
      match s.Conf.Scenario.family with
      | Conf.Scenario.Failstop | Conf.Scenario.Passthrough -> ()
      | f -> Alcotest.fail ("unexpected family " ^ Conf.Scenario.family_to_string f))
    batch

(* --- Config round-trip (the bundle format) --- *)

(* The round trip must give back the config itself; on failure the report
   names the keys that came back different (from Config's key table). *)
let roundtrips config =
  match Core.Config.of_keyvalues (Core.Config.to_keyvalues config) with
  | Error e -> QCheck.Test.fail_report e
  | Ok parsed when parsed = config -> true
  | Ok parsed ->
    QCheck.Test.fail_report
      (Printf.sprintf "reparse differs in: %s\nkeyvalues: %s"
         (String.concat ", " (Core.Config.differing_keys parsed config))
         (String.concat "; "
            (List.map (fun (k, v) -> k ^ "=" ^ v) (Core.Config.to_keyvalues config))))

let prop_config_roundtrip =
  QCheck.Test.make ~count:60 ~name:"to_keyvalues round-trips through of_keyvalues"
    QCheck.(make (Conf.Scenario.gen ()))
    (fun s -> roundtrips s.Conf.Scenario.config)

(* A generated scenario with every field that has file syntax redrawn from
   its whole valid range: unsnapped floats, retrans_* with the reliable
   channel off, non-default telemetry and supervision.  Cross-field rules
   hold by construction (gossip only without twins or reliable). *)
let gen_any_config : Core.Config.t QCheck.Gen.t =
 fun st ->
  let module G = QCheck.Gen in
  let s = Conf.Scenario.gen () st in
  let c = s.Conf.Scenario.config in
  let pos hi = G.float_range 1e-3 hi st in
  let opt g = if G.bool st then Some (g ()) else None in
  let prob () = G.float_range 0. 1. st in
  let attack =
    match c.Core.Config.attack with
    | Core.Config.Partition p ->
      let start_ms = G.float_range 0. 2000. st in
      Core.Config.Partition { p with start_ms; heal_ms = start_ms +. 1. +. pos 6000. }
    | Core.Config.Silence p -> Core.Config.Silence { p with at_ms = pos 3000. }
    | Core.Config.Extra_delay _ -> Core.Config.Extra_delay { extra_ms = pos 300. }
    | a -> a
  in
  let twins =
    Option.map (fun tw -> { tw with Bftsim_attack.Twins_schedule.round_ms = pos 5000. }) c.twins
  in
  let gossip = twins = None && G.bool st in
  let reliable = (not gossip) && G.bool st in
  {
    c with
    Core.Config.lambda_ms = pos 5000.;
    delay =
      G.oneofl
        [
          Net.Delay_model.normal ~mu:(pos 400.) ~sigma:(pos 100.);
          Net.Delay_model.Constant (pos 300.);
          Net.Delay_model.bounded (Net.Delay_model.Exponential { mean = pos 300. }) ~bound:(pos 2000.);
        ]
        st;
    seed = G.int_range 0 1_000_000_000 st;
    attack;
    decisions_target = G.int_range 1 50 st;
    max_time_ms = pos 1e7;
    max_events = G.int_range 1 100_000_000 st;
    inputs = G.oneofl Core.Config.[ Distinct; Same "w"; Random_binary ] st;
    transport = (if gossip then Core.Config.Gossip { fanout = G.int_range 1 8 st } else c.transport);
    costs = { Core.Cost_model.sign_ms = pos 2.; verify_ms = pos 2. };
    twins;
    watchdog = opt (fun () -> pos 50.);
    naive_reset = G.oneofl Protocols.Context.[ Reset_on_commit; Never_reset; Per_view_number ] st;
    telemetry = { metrics = G.bool st; tracing = G.bool st; trace_capacity = G.int_range 1 1_000_000 st };
    supervision =
      {
        deadline_ms = opt (fun () -> pos 1e5);
        max_retries = G.int_range 0 9 st;
        quarantine_after = G.int_range 1 9 st;
        retry_base_ms = G.float_range 0. 500. st;
      };
    zones = G.oneofl [ None; Some "geo3"; Some "geo5"; Some "uniform:3@120.5" ] st;
    bandwidth_mbps = opt (fun () -> pos 1000.);
    pipeline = G.int_range 1 8 st;
    loss =
      Net.Loss_model.make ~drop:(prob ()) ~dup:(prob ()) ~reorder_ms:(G.float_range 0. 100. st)
        ?burst:(opt (fun () -> { Net.Loss_model.p_gb = prob (); p_bg = prob (); p_bad = prob () }))
        ();
    reliable;
    retrans_base_ms = G.float_range 0. 3000. st;
    retrans_backoff = 1. +. G.float_range 0. 3. st;
    retrans_max = G.int_range 0 20 st;
    wal_ms = G.float_range 0. 10. st;
    stall_ms = opt (fun () -> pos 1e5);
  }

let prop_any_config_roundtrip =
  QCheck.Test.make ~count:200 ~name:"every file-syntax field round-trips exactly"
    QCheck.(make gen_any_config)
    (fun config ->
      Core.Config.validate config;
      roundtrips config)

(* --- Shrinking --- *)

let test_shrink_minimizes_n_and_seed () =
  let config =
    Core.Config.make "pbft" ~n:16 ~seed:909090 ~crashed:[ 2; 5 ]
      ~delay:(Net.Delay_model.normal ~mu:250. ~sigma:50.)
      ~attack:(Core.Config.Extra_delay { extra_ms = 50. })
  in
  (* Pure predicate (no simulation): fails whenever n >= 5, whatever else. *)
  let shrunk, attempts = Conf.Shrink.minimize ~fails:(fun c -> c.Core.Config.n >= 5) config in
  Alcotest.(check int) "n minimized to the smallest failing value" 5 shrunk.Core.Config.n;
  Alcotest.(check bool) "seed simplified" true (shrunk.Core.Config.seed <= 3);
  Alcotest.(check bool) "attack dropped" true (shrunk.Core.Config.attack = Core.Config.No_attack);
  Alcotest.(check (list int)) "crashed dropped" [] shrunk.Core.Config.crashed;
  Alcotest.(check bool) "attempts accounted" true (attempts > 0)

let test_shrink_respects_budget () =
  let config = Core.Config.make "pbft" ~n:16 ~seed:12345 in
  let evals = ref 0 in
  let shrunk, attempts =
    Conf.Shrink.minimize ~budget:3
      ~fails:(fun _ ->
        incr evals;
        true)
      config
  in
  Alcotest.(check bool) "stopped at budget" true (attempts <= 3 + List.length (Conf.Shrink.candidates shrunk));
  Alcotest.(check bool) "predicate not over-evaluated" true (!evals <= 6)

let test_shrink_candidates_valid () =
  let config =
    Core.Config.make "hotstuff-ns" ~n:13 ~seed:42 ~crashed:[ 1; 2 ]
      ~chaos:(Bftsim_attack.Fault_schedule.crash_and_recover ~nodes:[ 3 ] ~crash_ms:100. ~recover_ms:900.)
  in
  List.iter (fun c -> Core.Config.validate c) (Conf.Shrink.candidates config)

(* --- Harness + bundles + mutation (the CI smoke path, in-process) --- *)

let test_harness_clean_scenarios () =
  let report =
    Conf.Harness.fuzz ~protocols:[ "pbft"; "add-v1" ]
      ~families:[ Conf.Scenario.Passthrough; Conf.Scenario.Failstop ] ~jobs:1 ~budget:4 ~seed:2 ()
  in
  Alcotest.(check int) "scenarios run" 4 report.Conf.Harness.scenarios;
  Alcotest.(check int) "no failures" 0 (List.length report.Conf.Harness.failures)

let test_harness_catches_quorum_mutation () =
  with_mutation Protocols.Quorum.Quorum_minus_one (fun () ->
      let config = clean_config ~n:10 () in
      let verdicts, _ = Conf.Harness.check_config ~determinism:false config in
      Alcotest.(check bool) "mutation caught" true
        (List.exists (fun v -> v.Conf.Oracle.oracle = "qc-sanity") verdicts);
      (* Shrink the counterexample: qc-sanity fails at any n with the
         mutation active, so the minimum config must reach n = 4. *)
      let fails c = fst (Conf.Harness.check_config ~determinism:false c) <> [] in
      let shrunk, _ = Conf.Shrink.minimize ~fails config in
      Alcotest.(check int) "shrunk to the smallest system" 4 shrunk.Core.Config.n)

(* A journaled campaign resumed at another pool size from its header plus
   its first record reports exactly what the uninterrupted one does.  The
   failing scenario (a time cap too short to decide: a liveness verdict) is
   never journaled, so the resume runs it again. *)
let test_fuzz_scenarios_resume () =
  let scenario ?(max_time_ms = 600_000.) seed =
    {
      Conf.Scenario.config = { (clean_config ~n:4 ~seed ()) with Core.Config.max_time_ms };
      family = Conf.Scenario.Passthrough;
      expect_live = true;
    }
  in
  let scenarios = [ scenario 1; scenario 2; scenario ~max_time_ms:50. 3; scenario 4 ] in
  let check ?journal ?resumed jobs =
    Conf.Harness.fuzz_scenarios ~jobs ~determinism:false ~shrink_budget:4 ?journal ?resumed
      ~seed:1 scenarios
  in
  let signature (r : Conf.Harness.report) =
    Printf.sprintf "scenarios=%d checks=%d crashed=%d\n%s" r.Conf.Harness.scenarios
      r.Conf.Harness.checks
      (List.length r.Conf.Harness.crashed)
      (String.concat "\n"
         (List.map
            (fun (f : Conf.Harness.failure) ->
              Printf.sprintf "%s | %s | shrunk=%s"
                (Conf.Scenario.describe f.Conf.Harness.scenario)
                (String.concat "; " (List.map Conf.Oracle.describe f.Conf.Harness.verdicts))
                (Core.Config.describe f.Conf.Harness.shrunk))
            r.Conf.Harness.failures))
  in
  let path = Filename.temp_file "bftsim-conform" ".jsonl" in
  let fingerprint = Conf.Harness.campaign_cell scenarios in
  let j = Core.Journal.create ~fingerprint path in
  let reference = check ~journal:j 1 in
  Core.Journal.close j;
  Alcotest.(check int) "one failing scenario" 1 (List.length reference.Conf.Harness.failures);
  let first =
    match Core.Journal.load path with
    | Ok (_, e :: _) -> e
    | Ok (_, []) -> Alcotest.fail "nothing journaled"
    | Error e -> Alcotest.fail e
  in
  let j = Core.Journal.create ~fingerprint path in
  Core.Journal.append j first;
  Core.Journal.close j;
  (match Core.Journal.resume ~fingerprint path with
  | Error e -> Alcotest.fail e
  | Ok (j, events) ->
    let resumed = check ~journal:j ~resumed:events 2 in
    Core.Journal.close j;
    Alcotest.(check int) "one pass resumed" 1 resumed.Conf.Harness.resumed;
    Alcotest.(check string) "report equals the uninterrupted one" (signature reference)
      (signature resumed));
  (match Core.Journal.load path with
  | Error e -> Alcotest.fail e
  | Ok (_, events) ->
    Alcotest.(check (list int)) "the failing scenario is never journaled" [ 0; 1; 3 ]
      (List.sort compare (List.map fst (Core.Journal.completed events ~cell:fingerprint))));
  Sys.remove path

let test_bundle_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "bftsim-conformance-test" in
  let config = clean_config ~n:8 ~seed:5 () in
  let result = run config in
  let verdicts = [ { Conf.Oracle.oracle = "agreement"; detail = "synthetic" } ] in
  let bundle =
    Conf.Bundle.write ~dir ~name:"case-0" ~original:(clean_config ~n:16 ~seed:5 ())
      ~shrunk:config ~verdicts ~result ()
  in
  List.iter
    (fun file ->
      Alcotest.(check bool) (file ^ " exists") true
        (Sys.file_exists (Filename.concat bundle file)))
    [ "config.txt"; "original.txt"; "report.txt"; "trace.txt" ];
  (* The persisted config must parse back to the exact failing config. *)
  let ic = open_in (Filename.concat bundle "config.txt") in
  let kvs = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if String.length line > 0 && line.[0] <> '#' then
         match String.index_opt line '=' with
         | Some i ->
           kvs :=
             ( String.trim (String.sub line 0 i),
               String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
             :: !kvs
         | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  match Core.Config.of_keyvalues (List.rev !kvs) with
  | Error e -> Alcotest.fail ("bundle config does not parse: " ^ e)
  | Ok parsed -> Alcotest.(check bool) "bundle config round-trips" true (parsed = config)

(* --- Validator divergence symmetry (regression for the one-sided scan) --- *)

let test_validator_divergence_symmetric () =
  let r = run (clean_config ()) in
  let ground = { r with Core.Controller.decisions = [ (0, [ "a" ]) ]; trace = None } in
  let replayed =
    { r with Core.Controller.decisions = [ (0, [ "a" ]); (1, [ "b" ]) ]; trace = None }
  in
  (match Core.Validator.decisions_divergence ground replayed with
  | Some d -> Alcotest.(check bool) "extra replayed decider named" true (contains ~needle:"node 1" d)
  | None -> Alcotest.fail "node that decided only in the replayed run not reported");
  match Core.Validator.decisions_divergence replayed ground with
  | Some d -> Alcotest.(check bool) "missing decider named" true (contains ~needle:"node 1" d)
  | None -> Alcotest.fail "node missing from the replayed run not reported"

(* --- Fingerprints --- *)

let test_fingerprint_stable_and_sensitive () =
  let a = run (clean_config ~seed:3 ()) in
  let b = run (clean_config ~seed:3 ()) in
  let c = run (clean_config ~seed:4 ()) in
  Alcotest.(check string) "same seed, same fingerprint" (Conf.Fingerprint.of_result a)
    (Conf.Fingerprint.of_result b);
  Alcotest.(check bool) "different seed, different fingerprint" false
    (Conf.Fingerprint.of_result a = Conf.Fingerprint.of_result c);
  match (a.Core.Controller.trace, b.Core.Controller.trace) with
  | Some ta, Some tb ->
    Alcotest.(check string) "trace fingerprints agree" (Conf.Fingerprint.of_trace ta)
      (Conf.Fingerprint.of_trace tb)
  | _ -> Alcotest.fail "traces missing"

let () =
  Alcotest.run "conformance"
    [
      ( "oracle",
        [
          Alcotest.test_case "clean run" `Quick test_oracle_clean_run;
          Alcotest.test_case "agreement flags divergence" `Quick
            test_oracle_agreement_flags_divergence;
          Alcotest.test_case "integrity flags" `Quick test_oracle_integrity_flags;
          Alcotest.test_case "decide-once" `Quick test_oracle_decide_once;
          Alcotest.test_case "validity flags" `Quick test_oracle_validity_flags;
          Alcotest.test_case "validity exempts chained" `Quick test_oracle_validity_chained_exempt;
          Alcotest.test_case "recovery oracle" `Quick test_oracle_recovery;
          Alcotest.test_case "qc-sanity clean" `Quick test_oracle_qc_sanity_clean;
          Alcotest.test_case "qc-sanity catches mutation" `Quick
            test_oracle_qc_sanity_catches_mutation;
        ] );
      ( "scenario",
        [
          QCheck_alcotest.to_alcotest prop_scenarios_valid;
          QCheck_alcotest.to_alcotest prop_scenarios_respect_model;
          QCheck_alcotest.to_alcotest prop_scenarios_within_tolerance;
          Alcotest.test_case "deterministic sampling" `Quick test_scenario_sample_deterministic;
          Alcotest.test_case "family filter" `Quick test_scenario_family_filter;
        ] );
      ( "config",
        [
          QCheck_alcotest.to_alcotest prop_config_roundtrip;
          QCheck_alcotest.to_alcotest prop_any_config_roundtrip;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes n and seed" `Quick test_shrink_minimizes_n_and_seed;
          Alcotest.test_case "respects budget" `Quick test_shrink_respects_budget;
          Alcotest.test_case "candidates stay valid" `Quick test_shrink_candidates_valid;
        ] );
      ( "harness",
        [
          Alcotest.test_case "clean scenarios pass" `Slow test_harness_clean_scenarios;
          Alcotest.test_case "catches quorum mutation" `Quick test_harness_catches_quorum_mutation;
          Alcotest.test_case "bundle round-trip" `Quick test_bundle_roundtrip;
          Alcotest.test_case "resume re-runs the failing scenario" `Quick
            test_fuzz_scenarios_resume;
        ] );
      ( "validator",
        [
          Alcotest.test_case "divergence is symmetric" `Quick test_validator_divergence_symmetric;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "stable and sensitive" `Quick test_fingerprint_stable_and_sensitive;
        ] );
    ]
