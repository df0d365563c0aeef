(* Tests for the simulator core: configuration parsing, the controller's
   event loop and metrics, statistics, the repetition runner, traces, the
   validator, the view tracker and the LoC inventory. *)

module Core = Bftsim_core
module Net = Bftsim_net

let base_config ?(protocol = "pbft") ?(seed = 1) () =
  Core.Config.make protocol ~seed ~delay:(Net.Delay_model.normal ~mu:100. ~sigma:20.)

(* --- Config --- *)

let test_config_defaults () =
  let c = Core.Config.make "pbft" in
  Alcotest.(check int) "n" 16 c.n;
  Alcotest.(check (float 1e-9)) "lambda" 1000. c.lambda_ms;
  Alcotest.(check int) "non-pipelined target" 1 c.decisions_target;
  let h = Core.Config.make "hotstuff-ns" in
  Alcotest.(check int) "pipelined target" 10 h.decisions_target

let test_config_validation () =
  (match Core.Config.make "unknown-protocol" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown protocol accepted");
  (match Core.Config.make "pbft" ~n:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n = 0 accepted");
  (match Core.Config.make "pbft" ~crashed:[ 99 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range crash accepted");
  match Core.Config.make "pbft" ~lambda_ms:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lambda = 0 accepted"

let test_config_run_entry_validation () =
  (* Controller.run re-validates, so hand-built records (bypassing make) are
     rejected with a descriptive error instead of silently misbehaving. *)
  let expect_rejected what config =
    match Core.Controller.run config with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  let base = Core.Config.make "pbft" in
  expect_rejected "negative lambda" { base with Core.Config.lambda_ms = -1. };
  expect_rejected "zero decision target" { base with Core.Config.decisions_target = 0 };
  expect_rejected "crash beyond tolerance" { base with Core.Config.crashed = [ 0; 1; 2; 3; 4; 5 ] };
  expect_rejected "duplicate crash" { base with Core.Config.crashed = [ 2; 2 ] };
  expect_rejected "zero event cap" { base with Core.Config.max_events = 0 };
  expect_rejected "non-positive watchdog" { base with Core.Config.watchdog = Some 0. };
  expect_rejected "malformed chaos plan"
    {
      base with
      Core.Config.chaos =
        [ { Bftsim_attack.Fault_schedule.at_ms = 0.; action = Bftsim_attack.Fault_schedule.Crash 99 } ];
    }

let test_config_crash_tolerance_is_model_aware () =
  (* (n-1)/3 crash faults for partially-synchronous protocols, (n-1)/2 for
     synchronous ones: 7 of 16 is legal for sync-hotstuff, not for pbft. *)
  let seven = [ 9; 10; 11; 12; 13; 14; 15 ] in
  ignore (Core.Config.make "sync-hotstuff" ~crashed:seven);
  match Core.Config.make "pbft" ~crashed:seven with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pbft with 7/16 crashed accepted"

let test_config_inputs () =
  let distinct = Core.Config.make "pbft" ~inputs:Core.Config.Distinct in
  Alcotest.(check string) "distinct" "v3" (Core.Config.input_for distinct 3);
  let same = Core.Config.make "pbft" ~inputs:(Core.Config.Same "x") in
  Alcotest.(check string) "same" "x" (Core.Config.input_for same 3);
  let binary = Core.Config.make "pbft" ~inputs:Core.Config.Random_binary in
  let bit = Core.Config.input_for binary 3 in
  Alcotest.(check bool) "binary" true (bit = "0" || bit = "1");
  Alcotest.(check string) "binary deterministic" bit (Core.Config.input_for binary 3)

let test_config_of_keyvalues () =
  match
    Core.Config.of_keyvalues
      [
        ("protocol", "librabft"); ("n", "7"); ("lambda", "500"); ("delay", "normal:100,10");
        ("seed", "9"); ("attack", "partition:3,0,5000"); ("crashed", "6"); ("target", "2");
        ("inputs", "same:z");
      ]
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok c ->
    Alcotest.(check string) "protocol" "librabft" c.protocol;
    Alcotest.(check int) "n" 7 c.n;
    Alcotest.(check (float 1e-9)) "lambda" 500. c.lambda_ms;
    Alcotest.(check int) "seed" 9 c.seed;
    Alcotest.(check int) "target" 2 c.decisions_target;
    Alcotest.(check (list int)) "crashed" [ 6 ] c.crashed;
    (match c.attack with
    | Core.Config.Partition { first_size = 3; heal_ms = 5000.; drop = true; _ } -> ()
    | _ -> Alcotest.fail "partition spec wrong")

let test_config_of_keyvalues_chaos () =
  (match
     Core.Config.of_keyvalues
       [ ("protocol", "pbft"); ("chaos", "crash:3@0;recover:3@5000"); ("watchdog", "5") ]
   with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok c ->
    Alcotest.(check int) "two chaos steps" 2 (List.length c.chaos);
    Alcotest.(check (option (float 1e-9))) "watchdog multiplier" (Some 5.) c.watchdog);
  match Core.Config.of_keyvalues [ ("protocol", "pbft"); ("chaos", "meteor@0") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus chaos spec accepted"

let test_config_of_keyvalues_errors () =
  let expect_error kvs =
    match Core.Config.of_keyvalues kvs with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" (String.concat "," (List.map fst kvs))
  in
  expect_error [ ("n", "16") ] (* missing protocol *);
  expect_error [ ("protocol", "pbft"); ("n", "abc") ];
  expect_error [ ("protocol", "pbft"); ("delay", "bogus") ];
  expect_error [ ("protocol", "pbft"); ("attack", "bogus") ];
  expect_error [ ("protocol", "nope") ]

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_config_describe () =
  let c = Core.Config.make "pbft" ~attack:(Core.Config.Add_static { f = 2 }) in
  let s = Core.Config.describe c in
  Alcotest.(check bool) "mentions protocol" true (String.length s > 0 && String.sub s 0 4 = "pbft");
  Alcotest.(check bool) "mentions attack" true (contains ~needle:"add-static" s)

(* Journal cells hash [to_keyvalues]' exact bytes, and journal resume and
   repro bundles depend on them: a corpus covering every key family, each
   cell pinned.  A mismatch prints the rendered pairs so the diff against
   the old rendering is readable. *)
let cell_corpus =
  let golden p =
    Core.Config.make p ~n:7 ~seed:42 ~delay:(Net.Delay_model.Constant 100.) ~record_trace:true
  in
  List.map
    (fun p -> ("golden " ^ p, golden p))
    [ "add-v1"; "add-v2"; "add-v3"; "algorand"; "async-ba"; "pbft"; "hotstuff-ns"; "librabft" ]
  @ [
      ( "loss+reliable+retrans",
        Core.Config.make "pbft" ~n:7 ~seed:42
          ~loss:
            (Net.Loss_model.make ~drop:0.05 ~dup:0.02 ~reorder_ms:50.
               ~burst:{ Net.Loss_model.p_gb = 0.01; p_bg = 0.2; p_bad = 0.8 }
               ())
          ~reliable:true ~retrans_base_ms:250. ~retrans_backoff:1.5 ~retrans_max:5 ~wal_ms:2.
          ~stall_ms:60_000. );
      ( "twins rounds+leaders",
        Core.Config.make "pbft" ~n:4 ~seed:3
          ~twins:
            {
              Bftsim_attack.Twins_schedule.ids = [ 0 ];
              round_ms = 1500.;
              rounds = [ [ [ 0; 4 ] ]; []; [ [ 1; 2 ] ] ];
              leaders = [ 0; 0; 1 ];
            } );
      ( "gossip",
        Core.Config.make "pbft" ~n:10 ~crashed:[ 3 ] ~inputs:(Core.Config.Same "u")
          ~attack:(Core.Config.Extra_delay { extra_ms = 25.5 })
          ~transport:(Core.Config.Gossip { fanout = 4 }) );
      ( "zones+bandwidth+pipeline",
        Core.Config.make "pbft" ~n:5 ~lambda_ms:600. ~zones:"geo5" ~bandwidth_mbps:25. ~pipeline:4
          ~decisions_target:10 );
      ( "supervision",
        Core.Config.make "pbft"
          ~supervision:
            { Core.Config.deadline_ms = Some 1000.; max_retries = 3; quarantine_after = 5; retry_base_ms = 10. }
      );
      ( "telemetry",
        Core.Config.make "pbft"
          ~telemetry:{ Core.Config.metrics = true; tracing = true; trace_capacity = 1024 } );
      ( "naive_reset never",
        Core.Config.make "hotstuff-ns" ~naive_reset:Bftsim_protocols.Context.Never_reset );
      ("costs", Core.Config.make "pbft" ~costs:Core.Cost_model.commodity);
      ( "chaos",
        Core.Config.make "pbft" ~n:7 ~watchdog:5. ~max_time_ms:120_000.
          ~delay:(Net.Delay_model.bounded (Net.Delay_model.normal ~mu:250. ~sigma:50.) ~bound:1000.)
          ~chaos:
            (Result.get_ok
               (Bftsim_attack.Fault_schedule.of_string
                  "crash:2@200;restart:2@700;loss:0.2@0-8000;spike:500@0-4000;gst:normal:100,10@15000"))
      );
    ]

let pinned_cells =
  [
    ("golden add-v1", "2bce53648b2eee79cdc2c737f1b6df3e9fd40dfe83ae7a436a5c5ead8d35ea33");
    ("golden add-v2", "dc7bc11752772595eb3ee6e2df6564e63c1964a40221981f583b87f4409b93e6");
    ("golden add-v3", "1186d0fe659c4ec21cbf629c0cb8ad7fe487d6eb3303010d5a34ac9bf4898c17");
    ("golden algorand", "7bf0e0ac3d956b15b8294c95fa9e1251950a2e88ec9a4684d6036270d9c9eb2d");
    ("golden async-ba", "a1e41b90d294909075e8f71f7dbe64e8cc6b6e8fe4c632a99a8085e3c13ec373");
    ("golden pbft", "dbf873b50bb000b52ad00da8ec68007ecaa62666f5df750fcc1253337f4c6e81");
    ("golden hotstuff-ns", "a78f739d136238d5370421fed858fca912f8df7c8c83dbb6ac3e9a6a53f076dc");
    ("golden librabft", "9edc1a770b62e1e68af107b9bca027323f4f3625460debf688fff2b61ffbc50c");
    ("loss+reliable+retrans", "c7f9e9c1656949076b9e65302184ef7c56ba57ea9381b4488268c62f9fcecb10");
    ("twins rounds+leaders", "22807a4510d21ff63802d9db9b0a2663097af43475b72db61c53efe2ad48c274");
    ("gossip", "2fabcc0f8e51fb76d1beff43bb115bcd9ff605e43cec2e258a19e2c1c8795f89");
    ("zones+bandwidth+pipeline", "689e76e751b281edb5a899f9218d02cf57b89e647f0c8aa0fc05a88add0a2675");
    ("supervision", "3d28a8445067531e4acbedbac8422050040118cc9e04705903a19b7ed20ecb57");
    ("telemetry", "2a2bacd1ce3b2026f03e2034d65b1c57932c43726ddedb829ee32b4afa9db146");
    ("naive_reset never", "1f1c2c10a5d2cd7ea02e86816872037bee0751bc9afbfc5b84ad4249fa85738b");
    ("costs", "20c094bc7bb3205d3b614362f6114dfca9dc395526eaeb1c9e1899d87d03e4a7");
    ("chaos", "b3ec2e2e6b74a5d4cd7835dcd656a1771fe9f9d77cd545f750d660e0e375958f");
  ]

let test_config_cells_pinned () =
  List.iter
    (fun (name, config) ->
      let actual = Core.Journal.cell_of_config config in
      let expected = List.assoc name pinned_cells in
      if actual <> expected then
        Alcotest.failf "%s: cell %s, pinned %s\n%s" name actual expected
          (String.concat "\n"
             (List.map (fun (k, v) -> k ^ " = " ^ v) (Core.Config.to_keyvalues config))))
    cell_corpus

(* Values that %g renders lossily, and retrans_* with the reliable channel
   off: each must come back from its own key = value rendering. *)
let test_config_roundtrip_exact () =
  let roundtrip what c =
    match Core.Config.of_keyvalues (Core.Config.to_keyvalues c) with
    | Ok c' when c' = c -> ()
    | Ok c' ->
      Alcotest.failf "%s: reparse differs in %s" what
        (String.concat ", " (Core.Config.differing_keys c' c))
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  roundtrip "retrans_max without reliable" (Core.Config.make "pbft" ~retrans_max:5);
  roundtrip "lambda" (Core.Config.make "pbft" ~lambda_ms:1234.5678);
  roundtrip "max_time_ms" (Core.Config.make "pbft" ~max_time_ms:1234567.5);
  roundtrip "loss" (Core.Config.make "pbft" ~loss:(Net.Loss_model.make ~drop:0.0123456789 ()));
  roundtrip "delay" (Core.Config.make "pbft" ~delay:(Net.Delay_model.normal ~mu:250.1234567 ~sigma:50.))

let test_config_unknown_key () =
  match Core.Config.of_keyvalues [ ("protocol", "pbft"); ("n", "4"); ("nn", "5") ] with
  | Ok _ -> Alcotest.fail "unknown key nn accepted"
  | Error e ->
    Alcotest.(check bool) "names the key" true (contains ~needle:"\"nn\"" e);
    Alcotest.(check bool) "lists the known keys" true (contains ~needle:"lambda" e)

(* The naive-reset default is a constant: the environment variable that
   once overrode it must have no effect. *)
let test_config_naive_reset_default () =
  Unix.putenv "BFTSIM_NAIVE_RESET" "never";
  let c = Core.Config.make "hotstuff-ns" in
  Unix.putenv "BFTSIM_NAIVE_RESET" "";
  Alcotest.(check bool) "reset on commit" true
    (c.naive_reset = Bftsim_protocols.Context.Reset_on_commit)

(* README's "Configuration keys" table lists exactly the key table, in
   table order. *)
let test_readme_lists_keys () =
  match Core.Loc_count.find_root () with
  | None -> Alcotest.fail "repository root not found"
  | Some root ->
    let ic = open_in (Filename.concat root "README.md") in
    let lines = In_channel.input_all ic |> String.split_on_char '\n' in
    close_in ic;
    let rec section = function
      | [] -> []
      | "### Configuration keys" :: rest -> rest
      | _ :: rest -> section rest
    in
    let rec rows acc = function
      | line :: rest when not (String.starts_with ~prefix:"#" line) ->
        let acc =
          match String.split_on_char '`' line with
          | "| " :: key :: _ -> key :: acc
          | _ -> acc
        in
        rows acc rest
      | _ -> List.rev acc
    in
    Alcotest.(check (list string)) "README keys" Core.Config.keys (rows [] (section lines))

(* --- Controller --- *)

let test_controller_determinism () =
  let config = base_config () in
  let a = Core.Controller.run config and b = Core.Controller.run config in
  Alcotest.(check (float 1e-9)) "same time" a.time_ms b.time_ms;
  Alcotest.(check int) "same messages" a.messages_sent b.messages_sent;
  Alcotest.(check int) "same events" a.events_processed b.events_processed;
  Alcotest.(check bool) "same decisions" true (a.decisions = b.decisions)

let test_controller_seed_sensitivity () =
  let a = Core.Controller.run (base_config ~seed:1 ()) in
  let b = Core.Controller.run (base_config ~seed:2 ()) in
  Alcotest.(check bool) "different seeds, different timings" true (a.time_ms <> b.time_ms)

let test_controller_metrics_consistency () =
  let r = Core.Controller.run (base_config ()) in
  Alcotest.(check (float 1e-6)) "per-decision latency = time / target" r.time_ms
    (r.per_decision_latency_ms *. float_of_int r.config.decisions_target);
  Alcotest.(check bool) "bytes positive" true (r.bytes_sent > 0);
  Alcotest.(check bool) "events processed" true (r.events_processed > 0)

let test_controller_crashed_nodes_silent () =
  let config = Core.Config.make "pbft" ~crashed:[ 3; 4 ] ~seed:1 ~delay:(Net.Delay_model.Constant 50.) in
  let r = Core.Controller.run config in
  Alcotest.(check bool) "still live" true (r.outcome = Core.Controller.Reached_target);
  List.iter
    (fun (node, values) ->
      if List.mem node [ 3; 4 ] then
        Alcotest.(check int) (Printf.sprintf "node %d decided nothing" node) 0 (List.length values))
    r.decisions

(* Fail-stop [nodes] at t=0 with no recovery. *)
let crash_forever nodes =
  List.map
    (fun node -> { Bftsim_attack.Fault_schedule.at_ms = 0.; action = Bftsim_attack.Fault_schedule.Crash node })
    nodes

let test_controller_timeout_cap () =
  (* Crash too many nodes to ever make quorum: liveness failure must surface
     as Timed_out (or queue drained for timer-free protocols), not hang.
     Config-level over-crashing is rejected by validation, so deliberate
     over-crashing goes through the chaos plan. *)
  let config =
    Core.Config.make "pbft" ~chaos:(crash_forever [ 0; 1; 2; 3; 4; 5; 6 ]) ~seed:1
      ~max_time_ms:20_000. ~delay:(Net.Delay_model.Constant 50.)
  in
  let r = Core.Controller.run config in
  Alcotest.(check bool) "did not reach target" true (r.outcome <> Core.Controller.Reached_target);
  Alcotest.(check bool) "time capped" true (r.time_ms <= 20_000.)

let test_controller_attacker_override () =
  let dropped_all =
    {
      Bftsim_attack.Attacker.name = "blackhole";
      on_start = (fun _ -> ());
      attack = (fun _ _ ~dst:_ ~delay_ms:_ -> Bftsim_attack.Attacker.Drop);
      on_time_event = (fun _ _ -> ());
    }
  in
  let config = { (base_config ()) with Core.Config.max_time_ms = 10_000. } in
  let r = Core.Controller.run ~attacker:dropped_all config in
  Alcotest.(check bool) "nothing decided under blackhole" true
    (r.outcome <> Core.Controller.Reached_target);
  Alcotest.(check bool) "drops counted" true (r.messages_dropped > 0)

let test_controller_trace_recording () =
  let config = { (base_config ()) with Core.Config.record_trace = true } in
  let r = Core.Controller.run config in
  match r.trace with
  | None -> Alcotest.fail "trace missing"
  | Some t ->
    Alcotest.(check bool) "trace non-empty" true (Core.Trace.length t > 0);
    let kinds = List.map (fun (e : Core.Trace.entry) -> e.kind) (Core.Trace.entries t) in
    Alcotest.(check bool) "has sends" true (List.mem Core.Trace.Send kinds);
    Alcotest.(check bool) "has delivers" true (List.mem Core.Trace.Deliver kinds);
    Alcotest.(check bool) "has decides" true (List.mem Core.Trace.Decide kinds)

let test_controller_view_sampling () =
  let config = { (base_config ()) with Core.Config.view_sample_ms = Some 100. } in
  let r = Core.Controller.run config in
  Alcotest.(check bool) "samples collected" true (List.length r.view_samples > 0);
  List.iter
    (fun (at, views) ->
      Alcotest.(check bool) "sample in range" true (at <= r.time_ms +. 100.);
      Alcotest.(check int) "one view per node" 16 (Array.length views))
    r.view_samples

(* --- Chaos schedules, watchdog and invariant monitors --- *)

let test_chaos_crash_forever_excluded () =
  (* Nodes the plan crashes and never restarts are not counted toward the
     decision target — the chaos path mirrors config-crashed fail-stop. *)
  let config =
    Core.Config.make "pbft" ~chaos:(crash_forever [ 14; 15 ]) ~seed:1
      ~delay:(Net.Delay_model.Constant 50.)
  in
  let r = Core.Controller.run config in
  Alcotest.(check bool) "still live" true (r.outcome = Core.Controller.Reached_target);
  Alcotest.(check bool) "no invariant violations" true (r.violations = []);
  List.iter
    (fun (node, values) ->
      if List.mem node [ 14; 15 ] then
        Alcotest.(check int) (Printf.sprintf "node %d decided nothing" node) 0 (List.length values))
    r.decisions

let test_watchdog_stalls_overcrashed_run () =
  (* Crash f+1 nodes forever: quorum is unreachable, and without a watchdog
     the run burns simulated time to the 20 s cap.  The watchdog converts
     that Timed_out into Stalled at ~k*lambda, carrying partial metrics. *)
  let make_config watchdog =
    Core.Config.make "pbft" ~chaos:(crash_forever [ 10; 11; 12; 13; 14; 15 ]) ?watchdog ~seed:1
      ~max_time_ms:20_000. ~delay:(Net.Delay_model.Constant 50.)
  in
  let without = Core.Controller.run (make_config None) in
  Alcotest.(check bool) "without watchdog: times out" true
    (without.outcome = Core.Controller.Timed_out);
  let r = Core.Controller.run (make_config (Some 5.)) in
  (match r.outcome with
  | Core.Controller.Stalled { last_progress_ms } ->
    Alcotest.(check (float 1e-9)) "nothing was ever decided" 0. last_progress_ms
  | o -> Alcotest.failf "expected stalled, got %s" (Format.asprintf "%a" Core.Controller.pp_outcome o));
  Alcotest.(check bool) "aborted long before the cap" true (r.time_ms < 10_000.);
  Alcotest.(check bool) "partial metrics preserved" true (r.events_processed > 0)

let test_watchdog_quiet_on_healthy_run () =
  let config = { (base_config ()) with Core.Config.watchdog = Some 5. } in
  let r = Core.Controller.run config in
  Alcotest.(check bool) "healthy run unaffected" true (r.outcome = Core.Controller.Reached_target)

let test_watchdog_waits_for_scheduled_relief () =
  (* The plan recovers the crashed majority at t=30s — far beyond k*lambda.
     The watchdog must hold its fire while steps are pending, then count
     from the last step.  20 s cap < 30 s relief: the run times out rather
     than stalls, proving the watchdog never fired early. *)
  let chaos =
    Bftsim_attack.Fault_schedule.crash_and_recover ~nodes:[ 10; 11; 12; 13; 14; 15 ] ~crash_ms:0.
      ~recover_ms:30_000.
  in
  let config =
    Core.Config.make "pbft" ~chaos ~watchdog:5. ~seed:1 ~max_time_ms:20_000.
      ~delay:(Net.Delay_model.Constant 50.)
  in
  let r = Core.Controller.run config in
  Alcotest.(check bool) "timed out, not stalled" true (r.outcome = Core.Controller.Timed_out)

let test_chaos_determinism () =
  (* Acceptance: a non-trivial fault schedule (crashes, recoveries, a loss
     burst, a delay spike and a GST shift) must leave the run replayable —
     all chaos randomness is drawn from the wire's seeded loss stream. *)
  let chaos =
    match
      Bftsim_attack.Fault_schedule.of_string
        "crash:14@0;crash:15@0;loss:0.15@0-4000;spike:200@0-4000;recover:14@8000;recover:15@8000;gst:constant:50@8000"
    with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  let config =
    Core.Config.make "pbft" ~chaos ~seed:7 ~max_time_ms:60_000.
      ~delay:(Net.Delay_model.normal ~mu:100. ~sigma:20.)
  in
  let report = Core.Validator.check_determinism config in
  Alcotest.(check bool) "decisions match" true report.decisions_match;
  Alcotest.(check (option bool)) "traces match" (Some true) report.trace_match;
  (* Replay must stay exact too: dropped sends hold their position in the
     reconstructed delay table, so sequence numbers line up. *)
  let ground = Core.Controller.run { config with Core.Config.record_trace = true } in
  let replay = Core.Validator.validate_against ~ground_truth:ground config in
  Alcotest.(check bool) "replayed decisions match" true replay.decisions_match;
  Alcotest.(check (option bool)) "replayed trace matches" (Some true) replay.trace_match

let test_chaos_recovery_no_false_agreement () =
  (* A recovered node wakes behind the network: the quorums that decided
     while it was down will never re-form.  Once a later commit quorum
     proves the network moved past it, the replica fetches the decided
     prefix from f+1 peers instead of skipping or stalling — the run must
     still reach its target with no agreement violation. *)
  let chaos =
    Bftsim_attack.Fault_schedule.crash_and_recover ~nodes:[ 14; 15 ] ~crash_ms:0.
      ~recover_ms:15_000.
  in
  let config = Core.Config.make "pbft" ~chaos ~seed:1 ~decisions_target:1 ~max_time_ms:60_000. in
  let r = Core.Controller.run config in
  Alcotest.(check bool) "recovered nodes catch up" true
    (r.outcome = Core.Controller.Reached_target);
  Alcotest.(check bool) "safety holds" true r.safety_ok;
  Alcotest.(check bool) "no violations" true (r.violations = [])

let counter_of (r : Core.Controller.result) name =
  match r.metrics with
  | None -> 0
  | Some m ->
    (match List.assoc_opt name (Bftsim_obs.Metrics.snapshot m) with
    | Some (Bftsim_obs.Metrics.Counter_v c) -> c
    | _ -> 0)

let with_metrics config =
  {
    config with
    Core.Config.telemetry = { Core.Config.default_telemetry with Core.Config.metrics = true };
  }

let test_config_lossy_validation () =
  let rejected f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "loss > 1 rejected" true
    (rejected (fun () -> Core.Config.make "pbft" ~loss:(Net.Loss_model.make ~drop:1.5 ())));
  Alcotest.(check bool) "negative dup rejected" true
    (rejected (fun () -> Core.Config.make "pbft" ~loss:(Net.Loss_model.make ~dup:(-0.1) ())));
  Alcotest.(check bool) "backoff < 1 rejected" true
    (rejected (fun () -> Core.Config.make "pbft" ~retrans_backoff:0.5));
  Alcotest.(check bool) "negative retry cap rejected" true
    (rejected (fun () -> Core.Config.make "pbft" ~retrans_max:(-1)));
  Alcotest.(check bool) "negative retrans base rejected" true
    (rejected (fun () -> Core.Config.make "pbft" ~retrans_base_ms:(-5.)));
  Alcotest.(check bool) "negative wal latency rejected" true
    (rejected (fun () -> Core.Config.make "pbft" ~wal_ms:(-1.)));
  Alcotest.(check bool) "zero stall threshold rejected" true
    (rejected (fun () -> Core.Config.make "pbft" ~stall_ms:0.));
  Alcotest.(check bool) "kv path rejects too" true
    (Result.is_error (Core.Config.of_keyvalues [ ("protocol", "pbft"); ("loss", "1.5") ]));
  (* Well-formed lossy configuration is accepted and round-trips. *)
  let c =
    Core.Config.make "pbft"
      ~loss:(Net.Loss_model.make ~drop:0.05 ~dup:0.02 ~reorder_ms:20. ())
      ~reliable:true ~retrans_base_ms:100. ~retrans_max:5 ~wal_ms:2. ~stall_ms:30_000.
  in
  match Core.Config.of_keyvalues (Core.Config.to_keyvalues c) with
  | Ok c' -> Alcotest.(check bool) "kv round-trip" true (c' = c)
  | Error e -> Alcotest.fail e

let test_reliable_channel_end_to_end () =
  (* 20% loss without the reliable channel would starve quorums; with it the
     run reaches its target and the channel's accounting is visible. *)
  let config =
    with_metrics
      (Core.Config.make "hotstuff-ns" ~n:4 ~seed:7 ~decisions_target:10
         ~loss:(Net.Loss_model.make ~drop:0.2 ())
         ~reliable:true)
  in
  let r = Core.Controller.run config in
  Alcotest.(check bool) "reaches target through 20% loss" true
    (r.outcome = Core.Controller.Reached_target);
  Alcotest.(check bool) "safety holds" true r.safety_ok;
  Alcotest.(check bool) "messages were lost" true (counter_of r "net.loss_dropped" > 0);
  Alcotest.(check bool) "channel retransmitted" true (counter_of r "net.retrans" > 0);
  Alcotest.(check bool) "retransmitted duplicates deduped" true
    (counter_of r "net.dup_dropped" > 0)

let test_restart_catchup_end_to_end () =
  (* Crash a replica mid-run, restart it with volatile state lost: WAL
     rehydration plus state transfer must bring it back to the decision
     frontier, observed through the recovery.catchup_ms histogram. *)
  let chaos =
    Bftsim_attack.Fault_schedule.crash_and_restart ~nodes:[ 2 ] ~crash_ms:200. ~restart_ms:700.
  in
  (* Three decisions keep the run going past the catch-up: a late
     duplicate can let the fresh node decide the first slot before its f+1
     state responses are in. *)
  let config =
    with_metrics
      (Core.Config.make "pbft" ~n:7 ~seed:42 ~chaos ~decisions_target:3
         ~loss:(Net.Loss_model.make ~drop:0.05 ~dup:0.02 ())
         ~reliable:true ~wal_ms:0.5 ~stall_ms:60_000.)
  in
  let r = Core.Controller.run config in
  Alcotest.(check bool) "reaches target through the restart" true
    (r.outcome = Core.Controller.Reached_target);
  Alcotest.(check bool) "safety holds" true r.safety_ok;
  Alcotest.(check bool) "no invariant violations" true (r.violations = []);
  let catchup =
    match r.metrics with
    | None -> None
    | Some m ->
      (match List.assoc_opt "recovery.catchup_ms" (Bftsim_obs.Metrics.snapshot m) with
      | Some (Bftsim_obs.Metrics.Histogram_v h) -> Some h
      | _ -> None)
  in
  match catchup with
  | None -> Alcotest.fail "recovery.catchup_ms histogram missing"
  | Some h ->
    Alcotest.(check int) "one restart observed" 1 h.Bftsim_obs.Metrics.s_count;
    Alcotest.(check bool) "catch-up took simulated time" true (h.Bftsim_obs.Metrics.s_sum > 0.)

let test_late_delivery_to_crashed_replica () =
  (* Regression: the loss model's reorder delay carries a message past its
     destination's crash instant, so only a check at the actual arrival
     instant sees the node down; a send-time prediction let node 3 decide
     "v0/slot3" at 718.59 ms while crashed. *)
  let chaos =
    match Bftsim_attack.Fault_schedule.of_string "crash:3@717;restart:3@2638" with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  let config =
    Core.Config.make "pbft" ~n:4 ~seed:36 ~lambda_ms:200.
      ~delay:(Net.Delay_model.normal ~mu:50. ~sigma:10.)
      ~decisions_target:30 ~max_time_ms:120_000. ~chaos ~reliable:true
      ~loss:(Net.Loss_model.make ~drop:0.05 ~dup:0.01 ~reorder_ms:50. ())
  in
  let r = Core.Controller.run config in
  Alcotest.(check bool) "reaches target" true (r.outcome = Core.Controller.Reached_target);
  Alcotest.(check (list string)) "no invariant violations" []
    (List.map Core.Invariant.describe_violation r.violations);
  let traced = Core.Controller.run { config with Core.Config.record_trace = true } in
  Alcotest.(check bool) "messages lost at the down node are traced" true
    (List.exists
       (fun (e : Core.Trace.entry) -> e.kind = Core.Trace.Lost && e.peer = 3)
       (Core.Trace.entries (Option.get traced.trace)))

(* Chained restart: a restarted replica recalls its last committed digest
   but not the block, and catch-up sends only the blocks after it, so the
   commit rule must accept a block whose parent is that digest.  Before
   that, the replica kept voting and never decided again, and both runs
   timed out at 600 s. *)
let chained_restart_run protocol ~seed ~chaos =
  let chaos =
    match Bftsim_attack.Fault_schedule.of_string chaos with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  Core.Controller.run (Core.Config.make protocol ~n:7 ~seed ~decisions_target:30 ~chaos)

let test_chained_restart_redecides () =
  List.iter
    (fun (protocol, time_ms) ->
      let r = chained_restart_run protocol ~seed:1 ~chaos:"crash:2@5000;restart:2@20000" in
      Alcotest.(check bool) (protocol ^ " reaches target") true
        (r.outcome = Core.Controller.Reached_target);
      Alcotest.(check (float 0.5)) (protocol ^ " time to target") time_ms r.time_ms;
      Alcotest.(check bool) (protocol ^ " no violations") true (r.violations = []))
    [ ("hotstuff-ns", 27243.); ("librabft", 26659.) ]

(* Seeds 1-60: crash node 37s mod 6 at 1000 + (731s mod 8000) ms and restart
   it 1000 + (389s mod 9000) ms later.  librabft seeds 21 and 44 still time
   out: a second, librabft-only cause, not located yet. *)
let test_chained_restart_sweep () =
  List.iter
    (fun (protocol, expected_misses) ->
      let misses =
        List.filter
          (fun s ->
            let crash_ms = 1000 + (731 * s mod 8000) in
            let chaos =
              Printf.sprintf "crash:%d@%d;restart:%d@%d" (37 * s mod 6) crash_ms (37 * s mod 6)
                (crash_ms + 1000 + (389 * s mod 9000))
            in
            let r = chained_restart_run protocol ~seed:s ~chaos in
            if r.violations <> [] then
              Alcotest.failf "%s seed %d: %s" protocol s
                (String.concat "; " (List.map Core.Invariant.describe_violation r.violations));
            r.outcome <> Core.Controller.Reached_target)
          (List.init 60 succ)
      in
      Alcotest.(check (list int)) (protocol ^ " seeds missing the target") expected_misses misses)
    [ ("hotstuff-ns", []); ("librabft", [ 21; 44 ]) ]

(* Chaos loss and dup windows ride the wire's loss model: a plan whose
   windows cover the whole run is the same run as the base model, draw for
   draw.  Only the two step alarms tell them apart. *)
let test_chaos_windows_are_the_loss_model () =
  List.iter
    (fun protocol ->
      let run ?chaos ?loss () =
        Core.Controller.run
          (with_metrics (Core.Config.make protocol ?chaos ?loss ~n:7 ~seed:42 ~record_trace:true))
      in
      let windows =
        run
          ~chaos:
            (Result.get_ok (Bftsim_attack.Fault_schedule.of_string "loss:0.05@0-1e9;dup:0.02@0-1e9"))
          ()
      and base = run ~loss:(Net.Loss_model.make ~drop:0.05 ~dup:0.02 ()) () in
      let rows (r : Core.Controller.result) = Core.Trace.entries (Option.get r.trace) in
      Alcotest.(check bool) (protocol ^ " decisions") true (windows.decisions = base.decisions);
      Alcotest.(check bool) (protocol ^ " trace rows") true (rows windows = rows base);
      List.iter
        (fun name ->
          Alcotest.(check int) (protocol ^ " " ^ name) (counter_of base name) (counter_of windows name))
        [ "net.loss_dropped"; "net.dup_created" ];
      Alcotest.(check bool) (protocol ^ " the windows drew") true
        (counter_of windows "net.loss_dropped" > 0 && counter_of windows "net.dup_created" > 0))
    [ "pbft"; "hotstuff-ns" ]

let test_stall_ms_override () =
  (* The absolute stall threshold arms the liveness watchdog even without
     the [watchdog] multiplier, and wins over it when both are set. *)
  let make ?watchdog ?stall_ms () =
    Core.Config.make "pbft"
      ~chaos:(crash_forever [ 10; 11; 12; 13; 14; 15 ])
      ?watchdog ?stall_ms ~seed:1 ~max_time_ms:20_000. ~delay:(Net.Delay_model.Constant 50.)
  in
  let r = Core.Controller.run (make ~stall_ms:2_000. ()) in
  (match r.outcome with
  | Core.Controller.Stalled _ -> ()
  | o -> Alcotest.failf "expected stalled, got %s" (Format.asprintf "%a" Core.Controller.pp_outcome o));
  Alcotest.(check bool) "aborted near the absolute threshold" true (r.time_ms < 5_000.);
  let a = Core.Controller.run (make ~watchdog:5. ~stall_ms:1_000. ()) in
  let b = Core.Controller.run (make ~watchdog:5. ()) in
  Alcotest.(check bool) "absolute threshold beats the multiplier" true (a.time_ms < b.time_ms)

let test_chaos_validity_monitor_clean () =
  let config =
    Core.Config.make "pbft" ~inputs:(Core.Config.Same "x") ~check_validity:true ~seed:1
      ~delay:(Net.Delay_model.Constant 50.)
  in
  let r = Core.Controller.run config in
  Alcotest.(check bool) "decides" true (r.outcome = Core.Controller.Reached_target);
  Alcotest.(check bool) "validity holds" true (r.violations = [])

let test_invariant_monitors () =
  let m =
    Core.Invariant.create
      ~counted:(fun node -> node <> 9)
      ~crashed_now:(fun ~node ~at_ms:_ -> node = 5)
      ~valid_values:[ "a"; "b" ] ()
  in
  Core.Invariant.on_decide m ~node:0 ~index:0 ~value:"a" ~at_ms:10.;
  Alcotest.(check bool) "clean so far" true (Core.Invariant.ok m);
  Core.Invariant.on_decide m ~node:1 ~index:0 ~value:"b" ~at_ms:20.;
  Core.Invariant.on_decide m ~node:2 ~index:0 ~value:"z" ~at_ms:30.;
  Core.Invariant.on_decide m ~node:5 ~index:0 ~value:"a" ~at_ms:40.;
  Core.Invariant.on_decide m ~node:9 ~index:0 ~value:"zzz" ~at_ms:50.;
  Alcotest.(check bool) "violations flagged" false (Core.Invariant.ok m);
  let monitors = List.map (fun v -> v.Core.Invariant.monitor) (Core.Invariant.violations m) in
  (* node 1 disagrees; node 2 disagrees AND decides an unproposed value;
     node 5 decides while crashed; node 9 is not counted at all. *)
  Alcotest.(check (list string)) "detection order"
    [ "agreement"; "validity"; "agreement"; "crashed-decide" ] monitors;
  (match Core.Invariant.first_violation m ~monitor:"agreement" with
  | Some v -> Alcotest.(check (float 1e-9)) "earliest agreement violation" 20. v.Core.Invariant.at_ms
  | None -> Alcotest.fail "agreement violation not found");
  Alcotest.(check bool) "describe mentions the monitor" true
    (contains ~needle:"crashed-decide"
       (String.concat "\n" (List.map Core.Invariant.describe_violation (Core.Invariant.violations m))))

(* --- Stats --- *)

let test_stats_basic () =
  let s = Core.Stats.of_list [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1. s.min;
  Alcotest.(check (float 1e-9)) "max" 4. s.max;
  Alcotest.(check (float 1e-9)) "median" 2.5 s.median;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 1.25) s.stddev;
  Alcotest.(check int) "count" 4 s.count

let test_stats_single () =
  let s = Core.Stats.of_list [ 7. ] in
  Alcotest.(check (float 1e-9)) "mean" 7. s.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0. s.stddev

let test_stats_percentile () =
  let samples = [ 10.; 20.; 30.; 40.; 50. ] in
  Alcotest.(check (float 1e-9)) "p0" 10. (Core.Stats.percentile samples 0.);
  Alcotest.(check (float 1e-9)) "p50" 30. (Core.Stats.percentile samples 50.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Core.Stats.percentile samples 100.);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 20. (Core.Stats.percentile samples 25.)

let test_stats_errors () =
  (match Core.Stats.of_list [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty accepted");
  match Core.Stats.percentile [ 1. ] 101. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range percentile accepted"

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean lies within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1e6))
    (fun xs ->
      let s = Core.Stats.of_list xs in
      s.min <= s.mean +. 1e-9 && s.mean <= s.max +. 1e-9)

(* --- Runner --- *)

let test_runner_aggregates () =
  let summary = Core.Runner.run_many ~reps:5 (base_config ()) in
  Alcotest.(check int) "reps" 5 summary.reps;
  Alcotest.(check int) "results" 5 (List.length summary.results);
  Alcotest.(check int) "no liveness failures" 0 summary.liveness_failures;
  Alcotest.(check int) "no safety violations" 0 summary.safety_violations;
  Alcotest.(check bool) "latency positive" true (summary.latency_ms.mean > 0.)

let test_runner_distinct_seeds () =
  let summary = Core.Runner.run_many ~reps:4 (base_config ()) in
  let times = List.map (fun (r : Core.Controller.result) -> r.time_ms) summary.results in
  Alcotest.(check bool) "seeds vary" true (List.length (List.sort_uniq compare times) > 1)

(* The supervised stepping loop polls [cancel] between events and abandons
   the run with [Cancelled]; a traced run's Simlog mirror must not outlive
   it.  A mirrored warning is formatted even with logging off, so the [%t]
   printer below runs exactly when a mirror is installed. *)
let test_runner_cancellable () =
  let config =
    {
      (base_config ()) with
      Core.Config.telemetry = { Core.Config.default_telemetry with tracing = true };
    }
  in
  let polls = ref 0 in
  let cancel () =
    incr polls;
    !polls > 5
  in
  (match Core.Runner.run_cancellable ~cancel config with
  | _ -> Alcotest.fail "expected Supervisor.Cancelled"
  | exception Core.Supervisor.Cancelled -> ());
  Alcotest.(check int) "cancelled at the sixth poll" 6 !polls;
  let level = Logs.Src.level Bftsim_sim.Simlog.src in
  Logs.Src.set_level Bftsim_sim.Simlog.src None;
  let formatted = ref 0 in
  Bftsim_sim.Simlog.warn "%t" (fun _ -> incr formatted);
  Logs.Src.set_level Bftsim_sim.Simlog.src level;
  Alcotest.(check int) "no mirror left installed" 0 !formatted;
  let full = Core.Runner.run_cancellable config in
  Alcotest.(check bool) "an uncancelled run matches Controller.run" true
    (Bftsim_conformance.Fingerprint.of_result full
    = Bftsim_conformance.Fingerprint.of_result (Core.Controller.run config))

(* --- Trace & Validator --- *)

let traced_config ?(protocol = "pbft") () =
  { (base_config ~protocol ()) with Core.Config.record_trace = true }

let test_trace_decisions () =
  let r = Core.Controller.run (traced_config ()) in
  let t = Option.get r.trace in
  let from_trace = Core.Trace.decisions t in
  let from_result = List.filter (fun (_, values) -> values <> []) r.decisions in
  Alcotest.(check bool) "trace decisions match controller's" true (from_trace = from_result)

(* Every message that enters the event queue leaves its final delay in the
   trace under its own id.  Nothing in the base config drops a message, so
   each traced send (a Send row) is one queued message. *)
let test_trace_delays_reconstruction () =
  let r = Core.Controller.run (traced_config ()) in
  let t = Option.get r.trace in
  let delays = Core.Trace.delays t in
  let sends = List.filter (fun e -> e.Core.Trace.kind = Core.Trace.Send) (Core.Trace.entries t) in
  Alcotest.(check int) "one delay per send" (List.length sends) (List.length delays);
  List.iter
    (fun (id, d) -> if d < 0. then Alcotest.failf "negative delay %f for message %d" d id)
    delays

let test_trace_divergence_detection () =
  let a = Core.Trace.create () and b = Core.Trace.create () in
  let entry tag = { Core.Trace.at_ms = 1.; kind = Core.Trace.Send; node = 0; peer = 1; tag; detail = "" } in
  Core.Trace.record a (entry "x");
  Core.Trace.record b (entry "x");
  Alcotest.(check bool) "equal traces" true (Core.Trace.equal a b);
  Core.Trace.record a (entry "y");
  Core.Trace.record b (entry "z");
  Alcotest.(check bool) "diverged" false (Core.Trace.equal a b);
  match Core.Trace.first_divergence a b with
  | Some (1, Some ea, Some eb) ->
    Alcotest.(check string) "left entry" "y" ea.tag;
    Alcotest.(check string) "right entry" "z" eb.tag
  | _ -> Alcotest.fail "divergence not located"

let test_validator_determinism () =
  let report = Core.Validator.check_determinism (base_config ()) in
  Alcotest.(check bool) "decisions match" true report.decisions_match;
  Alcotest.(check (option bool)) "traces match" (Some true) report.trace_match

let test_validator_replay () =
  let ground = Core.Controller.run (traced_config ()) in
  (* Replay with a different sampling seed: delays come from the recorded
     trace, so the decisions must still match the ground truth. *)
  let other_seed = { (traced_config ()) with Core.Config.seed = 999 } in
  let report = Core.Validator.validate_against ~ground_truth:ground other_seed in
  Alcotest.(check bool) "replayed decisions match" true report.decisions_match

(* Replay reproduces any run: whichever stages set a message's delay — CPU
   charge, reorder, duplication, reliable frames and acks, gossip hops,
   zone latency and bandwidth queueing, a restart, an attacker's rewrite
   (a delaying partition, extra delay on every message) —
   the validator replays it by message id, and the replayed run repeats the
   ground truth's decisions and trace entry for entry.  The validator
   replays under a constant delay model, so every delay it queues must come
   from the recording: a message the replay missed arrives at another
   time. *)
let prop_replay_reproduces =
  let gen =
    let open QCheck.Gen in
    let feature kvs = map (fun on -> if on then kvs else []) bool in
    let* protocol = oneofl (Bftsim_protocols.Registry.names ())
    and* n = oneofl [ 4; 7 ]
    and* seed = int_range 1 10_000
    and* lossy = feature [ ("loss", "0.05"); ("dup", "0.05"); ("reorder", "40") ]
    and* costs = feature [ ("costs", "commodity") ]
    and* wan = feature [ ("zones", "geo3"); ("bandwidth", "10") ]
    and* fanout = opt (int_range 2 3)
    and* reliable = bool
    and* restart = opt (int_range 0 3)
    and* attack =
      oneof
        [
          return [];
          map
            (fun first -> [ ("attack", Printf.sprintf "partition:%d,500,3000,delay" first) ])
            (int_range 1 3);
          map (fun ms -> [ ("attack", Printf.sprintf "extra-delay:%d" ms) ]) (int_range 1 400);
        ]
    in
    (* Reliable channels need the direct transport, so gossip excludes them. *)
    let channel =
      match fanout with
      | Some k -> [ ("transport", Printf.sprintf "gossip:%d" k) ]
      | None -> if reliable then [ ("reliable", "true") ] else []
    in
    let plan =
      match restart with
      | Some k -> [ ("chaos", Printf.sprintf "crash:%d@200;restart:%d@700" k k) ]
      | None -> []
    in
    return
      ([
         ("protocol", protocol);
         ("n", string_of_int n);
         ("seed", string_of_int seed);
         ("target", "2");
         ("max_time_ms", "30000");
       ]
      @ lossy @ costs @ wan @ channel @ plan @ attack)
  in
  let print kvs = String.concat "; " (List.map (fun (k, v) -> k ^ " = " ^ v) kvs) in
  QCheck.Test.make ~name:"replay reproduces any run" ~count:100 (QCheck.make ~print gen) (fun kvs ->
      match Core.Config.of_keyvalues kvs with
      | Error e -> QCheck.Test.fail_reportf "invalid config drawn: %s" e
      | Ok config ->
        let ground = Core.Controller.run { config with Core.Config.record_trace = true } in
        let report = Core.Validator.validate_against ~ground_truth:ground config in
        if report.decisions_match && report.trace_match = Some true then true
        else
          QCheck.Test.fail_reportf "%a" Core.Validator.pp_report report)

(* A run is its steps: [create], [k] steps and [finish] end where a run
   capped at [k] events ends, whether the cap cuts the run short (both
   report [Event_cap]) or the run ends first; and stepping until [step]
   says stop, then finishing, is [run]. *)
let prop_stepping_equals_capped_run =
  let gen =
    let open QCheck.Gen in
    let* protocol = oneofl (Bftsim_protocols.Registry.names ())
    and* n = oneofl [ 4; 7 ]
    and* seed = int_range 1 10_000
    and* restart = opt (int_range 1 3)
    and* channel = oneofl [ []; [ ("loss", "0.05"); ("reliable", "true") ]; [ ("transport", "gossip:2") ] ]
    and* twins = bool
    and* k = int_range 1 2_000 in
    (* Twins need the direct transport. *)
    let twins = if twins && not (List.mem_assoc "transport" channel) then [ ("twins", "0") ] else [] in
    let plan =
      match restart with
      | Some p -> [ ("chaos", Printf.sprintf "crash:%d@200;restart:%d@700" p p) ]
      | None -> []
    in
    return
      ( [
          ("protocol", protocol);
          ("n", string_of_int n);
          ("seed", string_of_int seed);
          ("target", "2");
          ("max_time_ms", "30000");
        ]
        @ channel @ twins @ plan,
        k )
  in
  let print (kvs, k) =
    String.concat "; " (List.map (fun (key, v) -> key ^ " = " ^ v) kvs) ^ Printf.sprintf "; k = %d" k
  in
  let fingerprint = Bftsim_conformance.Fingerprint.of_result in
  QCheck.Test.make ~name:"stepping equals a capped run" ~count:100 (QCheck.make ~print gen)
    (fun (kvs, k) ->
      match Core.Config.of_keyvalues kvs with
      | Error e -> QCheck.Test.fail_reportf "invalid config drawn: %s" e
      | Ok config ->
        let stepped = Core.Controller.create config in
        for _ = 1 to k do
          ignore (Core.Controller.step stepped : bool)
        done;
        let capped = Core.Controller.run { config with Core.Config.max_events = k } in
        let whole = Core.Controller.create config in
        while Core.Controller.step whole do
          ()
        done;
        let stepped = Core.Controller.finish stepped and whole = Core.Controller.finish whole in
        if fingerprint stepped <> fingerprint capped then
          QCheck.Test.fail_reportf "%d steps:@.%s@.capped run:@.%s" k
            (Bftsim_conformance.Fingerprint.canonical stepped)
            (Bftsim_conformance.Fingerprint.canonical capped)
        else if fingerprint whole <> fingerprint (Core.Controller.run config) then
          QCheck.Test.fail_reportf "stepping to the end differs from run:@.%s"
            (Bftsim_conformance.Fingerprint.canonical whole)
        else true)

let test_validator_detects_difference () =
  let a = Core.Controller.run (base_config ~seed:1 ()) in
  let b = Core.Controller.run (base_config ~protocol:"pbft" ~seed:500 ()) in
  (* Different seeds usually decide the same value here, so compare against a
     crashed-primary run which must decide a different value. *)
  let c =
    Core.Controller.run
      (Core.Config.make "pbft" ~crashed:[ 0 ] ~seed:1 ~delay:(Net.Delay_model.Constant 50.))
  in
  Alcotest.(check bool) "same-protocol same-value runs match" true (Core.Validator.same_decisions a b);
  Alcotest.(check bool) "crashed-primary run differs" false (Core.Validator.same_decisions a c)

(* --- View tracker --- *)

let test_view_tracker_analyze () =
  let samples =
    [
      (0., [| 1; 1; 1 |]); (250., [| 1; 2; 1 |]); (500., [| 2; 2; 2 |]); (750., [| 3; 3; 3 |]);
    ]
  in
  let d = Core.View_tracker.analyze ~sample_ms:250. samples in
  Alcotest.(check int) "max spread" 1 d.max_spread;
  Alcotest.(check (float 1e-9)) "desync time" 250. d.time_desynced_ms;
  Alcotest.(check (option (float 1e-9))) "first desync" (Some 250.) d.first_desync_ms;
  Alcotest.(check (option (float 1e-9))) "resync" (Some 500.) d.resync_ms

let test_view_tracker_crashed_nodes () =
  let d = Core.View_tracker.analyze ~sample_ms:100. [ (0., [| 3; -1; 3 |]) ] in
  Alcotest.(check int) "crashed nodes ignored" 0 d.max_spread

let test_view_tracker_render () =
  let out = Core.View_tracker.render [ (0., [| 1; 2 |]); (250., [| 2; 2 |]) ] in
  Alcotest.(check bool) "renders one row per node" true
    (List.length (String.split_on_char '\n' out) >= 3);
  Alcotest.(check string) "empty samples" "(no samples)" (Core.View_tracker.render [])

(* --- Experiments presets --- *)

let test_experiments_presets_valid () =
  (* Every preset must build a valid config; cheap guard against drift. *)
  ignore (Core.Experiments.fig2_config ~n:8);
  List.iter
    (fun protocol ->
      List.iter
        (fun (_, delay) -> ignore (Core.Experiments.fig3_config ~protocol ~delay ~seed:1))
        Core.Experiments.network_environments)
    Core.Experiments.all_protocols;
  List.iter
    (fun lambda_ms -> ignore (Core.Experiments.fig4_config ~protocol:"pbft" ~lambda_ms ~seed:1))
    Core.Experiments.fig4_lambdas;
  List.iter
    (fun protocol -> ignore (Core.Experiments.fig6_config ~protocol ~seed:1))
    Core.Experiments.fig6_protocols;
  List.iter
    (fun failstop -> ignore (Core.Experiments.fig7_config ~protocol:"pbft" ~failstop ~seed:1))
    Core.Experiments.fig7_failstop_counts;
  List.iter
    (fun f ->
      ignore (Core.Experiments.fig8_static_config ~protocol:"add-v1" ~f ~seed:1);
      ignore (Core.Experiments.fig8_adaptive_config ~protocol:"add-v2" ~f ~seed:1))
    Core.Experiments.fig8_f_values;
  ignore (Core.Experiments.fig9_config ~seed:1)

let test_experiments_fig7_bounds () =
  match Core.Experiments.fig7_config ~protocol:"pbft" ~failstop:6 ~seed:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "failstop beyond tolerance accepted"

(* --- LoC inventory --- *)

let test_loc_inventory () =
  match Core.Loc_count.find_root () with
  | None -> () (* sources not present (e.g. installed package); nothing to check *)
  | Some root ->
    let t1 = Core.Loc_count.table1 ~root in
    Alcotest.(check int) "eight protocol rows" 8 (List.length t1);
    List.iter
      (fun (e : Core.Loc_count.entry) ->
        Alcotest.(check bool) (e.label ^ " has code") true (e.loc > 50))
      t1;
    let t2 = Core.Loc_count.table2 ~root in
    Alcotest.(check int) "four attack rows" 4 (List.length t2);
    List.iter
      (fun (e : Core.Loc_count.entry) ->
        Alcotest.(check bool) (e.label ^ " has code") true (e.loc > 10))
      t2

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "run-entry validation" `Quick test_config_run_entry_validation;
          Alcotest.test_case "model-aware crash tolerance" `Quick
            test_config_crash_tolerance_is_model_aware;
          Alcotest.test_case "inputs" `Quick test_config_inputs;
          Alcotest.test_case "key-value parsing" `Quick test_config_of_keyvalues;
          Alcotest.test_case "key-value chaos" `Quick test_config_of_keyvalues_chaos;
          Alcotest.test_case "key-value errors" `Quick test_config_of_keyvalues_errors;
          Alcotest.test_case "describe" `Quick test_config_describe;
          Alcotest.test_case "journal cells pinned" `Quick test_config_cells_pinned;
          Alcotest.test_case "exact key-value round trip" `Quick test_config_roundtrip_exact;
          Alcotest.test_case "unknown key rejected" `Quick test_config_unknown_key;
          Alcotest.test_case "naive_reset default is constant" `Quick
            test_config_naive_reset_default;
          Alcotest.test_case "README lists every key" `Quick test_readme_lists_keys;
        ] );
      ( "controller",
        [
          Alcotest.test_case "determinism" `Quick test_controller_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_controller_seed_sensitivity;
          Alcotest.test_case "metric consistency" `Quick test_controller_metrics_consistency;
          Alcotest.test_case "crashed nodes silent" `Quick test_controller_crashed_nodes_silent;
          Alcotest.test_case "liveness cap" `Quick test_controller_timeout_cap;
          Alcotest.test_case "attacker override" `Quick test_controller_attacker_override;
          Alcotest.test_case "trace recording" `Quick test_controller_trace_recording;
          Alcotest.test_case "view sampling" `Quick test_controller_view_sampling;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crashed-forever excluded from target" `Quick
            test_chaos_crash_forever_excluded;
          Alcotest.test_case "watchdog stalls over-crashed run" `Quick
            test_watchdog_stalls_overcrashed_run;
          Alcotest.test_case "watchdog quiet on healthy run" `Quick
            test_watchdog_quiet_on_healthy_run;
          Alcotest.test_case "watchdog waits for scheduled relief" `Quick
            test_watchdog_waits_for_scheduled_relief;
          Alcotest.test_case "chaos runs replay deterministically" `Quick test_chaos_determinism;
          Alcotest.test_case "recovery causes no false agreement violation" `Quick
            test_chaos_recovery_no_false_agreement;
          Alcotest.test_case "lossy config validation" `Quick test_config_lossy_validation;
          Alcotest.test_case "reliable channel end to end" `Quick
            test_reliable_channel_end_to_end;
          Alcotest.test_case "restart catch-up end to end" `Quick test_restart_catchup_end_to_end;
          Alcotest.test_case "late delivery to a crashed replica is lost" `Quick
            test_late_delivery_to_crashed_replica;
          Alcotest.test_case "stall_ms override" `Quick test_stall_ms_override;
          Alcotest.test_case "loss and dup windows are the loss model" `Quick
            test_chaos_windows_are_the_loss_model;
          Alcotest.test_case "chained restart re-decides" `Quick test_chained_restart_redecides;
          Alcotest.test_case "chained restart sweep" `Quick test_chained_restart_sweep;
          Alcotest.test_case "validity monitor clean on unanimous run" `Quick
            test_chaos_validity_monitor_clean;
          Alcotest.test_case "invariant monitors" `Quick test_invariant_monitors;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "errors" `Quick test_stats_errors;
          qc prop_stats_mean_bounded;
        ] );
      ( "runner",
        [
          Alcotest.test_case "aggregation" `Quick test_runner_aggregates;
          Alcotest.test_case "distinct seeds" `Quick test_runner_distinct_seeds;
          Alcotest.test_case "cancellable stepping loop" `Quick test_runner_cancellable;
        ] );
      ( "trace+validator",
        [
          Alcotest.test_case "trace decisions" `Quick test_trace_decisions;
          Alcotest.test_case "delay reconstruction" `Quick test_trace_delays_reconstruction;
          Alcotest.test_case "divergence detection" `Quick test_trace_divergence_detection;
          Alcotest.test_case "determinism check" `Quick test_validator_determinism;
          Alcotest.test_case "trace replay" `Quick test_validator_replay;
          Alcotest.test_case "difference detection" `Quick test_validator_detects_difference;
          qc prop_replay_reproduces;
          qc prop_stepping_equals_capped_run;
        ] );
      ( "view_tracker",
        [
          Alcotest.test_case "analyze" `Quick test_view_tracker_analyze;
          Alcotest.test_case "crashed nodes" `Quick test_view_tracker_crashed_nodes;
          Alcotest.test_case "render" `Quick test_view_tracker_render;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "presets valid" `Quick test_experiments_presets_valid;
          Alcotest.test_case "fig7 bounds" `Quick test_experiments_fig7_bounds;
        ] );
      ("loc", [ Alcotest.test_case "inventory" `Quick test_loc_inventory ]);
    ]
