(* Golden-fingerprint regression tests: one canonical configuration per
   paper protocol, with the result fingerprint pinned.  Any change to the
   engine, a protocol, the RNG, or the delay pipeline that alters observable
   behaviour shows up here as a mismatch — the canonical form is printed so
   the diff against the old behaviour is readable.  If a change is
   intentional, re-pin the hashes from that output. *)

module Core = Bftsim_core
module Conf = Bftsim_conformance
module Net = Bftsim_net
module Obs = Bftsim_obs

(* The paper's eight protocols, each under a fixed small configuration:
   n = 7 (tight 3f+1), deterministic constant delays, fixed seed. *)
let pinned =
  [
    ("add-v1", "2a4031f9a467f8112e962b26366bf8229c6b27c2e8b695cc7cc776fdcc6e16d1");
    ("add-v2", "9ddd9f2b510c42b0ea60c5a39cd56b0cd978f34c8c80e10f125cc634edd03947");
    ("add-v3", "ac499d7a6f527ca967ddb6ce89d3bcb68bd244475bcd829bac862703ea27a3c3");
    ("algorand", "6e92819ddd2d9dead805579c669e6faf50f070946d630d24ea962681c046cc11");
    ("async-ba", "ab1f1860a4d3850df970adc4d2f4cbc52bb4c231020fea5b26bd7ac22c4f649b");
    ("pbft", "ff1b14aee54de19192a6ca8666d7ecceeff87afaaddd00a3a45f5e6ccdfada90");
    ("hotstuff-ns", "817e653dfb9d523e4aad86854c1a0c2aeeaa053720a1b8285ad081e73f3f83b2");
    ("librabft", "05ccd33fe03e02170408afa179d0f58b2e1b1a10d8b4512859738c4944dfbb44");
  ]

let canonical_config protocol =
  Core.Config.make protocol ~n:7 ~seed:42 ~delay:(Net.Delay_model.Constant 100.)
    ~record_trace:true

let check_fingerprint (protocol, expected) () =
  let result = Core.Controller.run (canonical_config protocol) in
  let actual = Conf.Fingerprint.of_result result in
  if actual <> expected then begin
    Printf.printf "--- canonical form for %s (fingerprint %s) ---\n%s\n" protocol actual
      (Conf.Fingerprint.canonical result);
    Alcotest.fail
      (Printf.sprintf "%s fingerprint changed: pinned %s, got %s — canonical form above" protocol
         expected actual)
  end

(* Depth-4 pins.  Without a workload attached, [pipeline] only reaches the
   chained protocols as the proposal-request width — which the no-workload
   identity hook ignores — so their depth-4 runs must stay byte-identical
   to the depth-1 pins above.  PBFT's slot window genuinely widens, so it
   gets its own pin. *)
let pinned_depth4 =
  [
    ("pbft", "450ea9bc824411db6f9bff0060d570010d9d853be3b66550827cb153ddda8e48");
    ("hotstuff-ns", List.assoc "hotstuff-ns" pinned);
    ("librabft", List.assoc "librabft" pinned);
  ]

let check_fingerprint_depth4 (protocol, expected) () =
  let config =
    Core.Config.make protocol ~n:7 ~seed:42 ~delay:(Net.Delay_model.Constant 100.)
      ~record_trace:true ~pipeline:4
  in
  let result = Core.Controller.run config in
  let actual = Conf.Fingerprint.of_result result in
  if actual <> expected then begin
    Printf.printf "--- canonical form for %s pipeline=4 (fingerprint %s) ---\n%s\n" protocol actual
      (Conf.Fingerprint.canonical result);
    Alcotest.fail
      (Printf.sprintf "%s depth-4 fingerprint changed: pinned %s, got %s — canonical form above"
         protocol expected actual)
  end

(* Feature-on pins: the transport and fault paths (gossip envelopes, the
   loss model, the reliable channel, crash/restart, the sign/verify CPU and
   the egress queue) each run under the canonical n = 7 configuration, so
   a refactor of the send/deliver path cannot silently change them. *)
let lossy config =
  {
    config with
    Core.Config.loss = Net.Loss_model.make ~drop:0.05 ~dup:0.02 ~reorder_ms:50. ();
    reliable = true;
    (* Below the 2λ default, so retransmission fires inside the short run. *)
    retrans_base_ms = 250.;
  }

let restarting config =
  {
    config with
    Core.Config.chaos =
      Bftsim_attack.Fault_schedule.crash_and_restart ~nodes:[ 2 ] ~crash_ms:200. ~restart_ms:700.;
  }

let pinned_features =
  [
    ( "pbft gossip fanout=4",
      (fun () ->
        { (canonical_config "pbft") with Core.Config.transport = Core.Config.Gossip { fanout = 4 } }),
      "e5c23fa8af7392d3b4c31715dcaec5a0e3ed14fff2d9af2dfb48fdaf7b6b49cc/86a4504ff619c135a04e09925e1ff7314c2778f50ee370bedf9a1bcaaa83581c" );
    ( "pbft loss+reliable",
      (fun () -> lossy (canonical_config "pbft")),
      "0c9849ee664752e83021cba85778bee0163f3d7dcbf531e963a7763eb9937cd8/66a823629057d9ea9931e06e4d154f9d109cbcf1c8345e71b00d7e30b6faf481");
    ( "pbft loss+reliable+restart",
      (fun () -> restarting (lossy (canonical_config "pbft"))),
      "f6c527bb04f5b851ad8fb9362b5b98f221e2186f49131e37bcc40178ac0eaa5f/07e3b0cf59d2c7cd723c62fd7504c677a2e314d5e31ed762538235bafdefc61f" );
    ( "hotstuff-ns loss+reliable+restart",
      (fun () -> restarting (lossy (canonical_config "hotstuff-ns"))),
      "7eb39183ce5c45cb43f66e15913fe2ed28f218aaaf3a54a89b7f0afe47d4e9e2/03fd0585c5eda8c9eb137f70378aa19da2e7f77b46f7cb1fd3d8b5d2a0f8ab95" );
    ( "pbft costs+bandwidth+zones",
      (fun () ->
        {
          (canonical_config "pbft") with
          Core.Config.costs = Core.Cost_model.commodity;
          bandwidth_mbps = Some 100.;
          zones = Some "geo3";
        }),
      "1803f8a904dbfbc0f38b28c9dc8b2e48fc013cf2aa509b122199ee19248f97e3/6f6cbca340654b69a6f3d29c2c9f206937a4017d7b3710b00f73797a37c61457" );
  ]

(* Feature pins also hash the recorded trace: its send/drop/deliver rows
   (with payload renderings) see envelope and drop-path changes that the
   result summary would not. *)
let check_feature (name, config, expected) () =
  let result = Core.Controller.run (config ()) in
  let actual =
    Conf.Fingerprint.of_result result ^ "/" ^ Conf.Fingerprint.of_trace (Option.get result.trace)
  in
  if actual <> expected then begin
    Printf.printf "--- canonical form for %s (fingerprint %s) ---\n%s\n" name actual
      (Conf.Fingerprint.canonical result);
    Alcotest.fail
      (Printf.sprintf "%s fingerprint changed: pinned %s, got %s — canonical form above" name
         expected actual)
  end

(* Further feature pins for paths the set above leaves out: the twins id
   mapping, a workload-driven load point, a silent attacker beside a
   config-crashed node, the adaptive corruption hook and periodic view
   sampling (whose samples the result hash does not cover, so they get a
   third hash). *)
let sha s = Bftsim_crypto.Sha256.to_hex (Bftsim_crypto.Sha256.digest_string s)

let of_view_samples samples =
  sha
    (String.concat "\n"
       (List.map
          (fun (at, views) ->
            Printf.sprintf "%h:%s" at
              (String.concat ";" (Array.to_list (Array.map string_of_int views))))
          samples))

let twins_config () =
  let twins =
    {
      Bftsim_attack.Twins_schedule.ids = [ 1 ];
      round_ms = 400.;
      rounds = [ [ [ 0; 1; 2 ]; [ 3; 4 ] ]; [ [ 0; 4; 3 ]; [ 1; 2 ] ]; [] ];
      leaders = [ 1; 1; 0; 2 ];
    }
  in
  Core.Config.make "pbft" ~n:4 ~seed:42 ~delay:(Net.Delay_model.Constant 100.) ~record_trace:true
    ~twins

let load_point () =
  let config =
    Core.Config.make "hotstuff-ns" ~n:4 ~lambda_ms:200. ~delay:(Net.Delay_model.Constant 20.)
      ~decisions_target:12 ~seed:7 ~pipeline:2 ~record_trace:true
  in
  let driver =
    Bftsim_workload.Driver.make
      ~arrival:(Bftsim_workload.Arrival.constant ~rate:1.)
      ~policy:(Bftsim_workload.Batch.make ~max_batch:32 ~max_wait_ms:10.)
      ~mempool_capacity:256 ()
  in
  let _, _, result = Bftsim_workload.Driver.run_point_audit driver ~rate:400. config in
  result

let run_config config () = Core.Controller.run (config ())

let pinned_paths =
  [
    ( "pbft twins rounds+leaders",
      run_config twins_config,
      "fb048476f9429960b06345c74d3ea017c927e45766e62e51ae242903ce0947e4/142f37cfa28904daf8e4a14f991c2cff50b8794551a0c713077af018814cc2b5",
      `Plain );
    ( "hotstuff-ns load point",
      load_point,
      "f0edc62e6071b0b4d2efd791bf6d9297c9e226d46e249f4a8950bd44e8d97bf7/0f2abcf3e6ea7ae213758e51650db3a2a67bd0fbda2982e2d11cb8f87a7a201b",
      `Plain );
    ( "pbft silence+crashed",
      run_config (fun () ->
          {
            (canonical_config "pbft") with
            Core.Config.crashed = [ 6 ];
            attack = Core.Config.Silence { nodes = [ 0 ]; at_ms = 0. };
            decisions_target = 3;
          }),
      "63a6ab046fa0fd5e5df227600a36cef17944b6e00316b0045051b9bca736073f/e6d2917e2a14762e6150e7a4772b9163e8e5468fd3fcd3462624b285e55778ac",
      `Plain );
    ( "add-v2 rushing adaptive",
      run_config (fun () ->
          {
            (canonical_config "add-v2") with
            Core.Config.attack = Core.Config.Add_rushing_adaptive { budget = Some 2 };
          }),
      "e33c4125b7a5b12e9b92c406e1ef2e53e68d119ca78dbbb4eea5a137de0d54d5/2736efcf2e63998bd15eac71a50c8f702c1ad85c302b08a8c716fc05477ca6f0",
      `Plain );
    ( "pbft view samples",
      run_config (fun () ->
          {
            (canonical_config "pbft") with
            Core.Config.crashed = [ 0 ];
            decisions_target = 3;
            view_sample_ms = Some 100.;
          }),
      "9ae6f16e532718e7f731d431fe3b086fe07d8fa3847c802639ee70792d54b0be/d786e51fc9b07bab4bfb8d11030cdc59acbbb4e82524fb36cc36a075bb622137/44fce11580ded20c66eb7f2b38aa2620e957da5aee1003ffbece7e06ff238610",
      `Views );
  ]

let check_path (name, run, expected, kind) () =
  let result = run () in
  let actual =
    Conf.Fingerprint.of_result result ^ "/" ^ Conf.Fingerprint.of_trace (Option.get result.trace)
    ^ match kind with `Plain -> "" | `Views -> "/" ^ of_view_samples result.view_samples
  in
  if actual <> expected then begin
    Printf.printf "--- canonical form for %s (fingerprint %s) ---\n%s\n" name actual
      (Conf.Fingerprint.canonical result);
    Alcotest.fail
      (Printf.sprintf "%s fingerprint changed: pinned %s, got %s — canonical form above" name
         expected actual)
  end

(* Credential pins at benchmark scale.  The pins above are n = 7 runs with
   constant delays, so each checks only a few VRF credentials; these n = 64
   runs under N(250, 50) evaluate and verify thousands, and the elected
   leaders follow the VRF tickets, so a change to any SHA-256, HMAC or VRF
   output or verdict moves them.  The adaptive attacker reads each
   credential's ticket before delivery and corrupts the winner. *)
let credential_config ?attack ?(n = 64) protocol =
  Core.Config.make protocol ~n ~seed:3 ?attack
    ~delay:(Net.Delay_model.Normal { mu = 250.; sigma = 50. })

let pinned_credentials =
  [
    ( "add-v2 n=64",
      (fun () -> credential_config "add-v2"),
      "7eeee2de5201d9ec81766cbe737b21d4535f0ad3ee2b6231a7440db56498c753" );
    ( "add-v3 n=64",
      (fun () -> credential_config "add-v3"),
      "676d013d136f1419181e2f8e6184906d542155eefa6fd62b84af362107f6675f" );
    ( "algorand n=64",
      (fun () -> credential_config "algorand"),
      "17e52aa0ed25b18d79413197b43be13227118988eaf508573dc7264b194719ae" );
    ( "add-v2 n=16 rushing adaptive",
      (fun () ->
        credential_config "add-v2" ~n:16
          ~attack:(Core.Config.Add_rushing_adaptive { budget = None })),
      "6b985f99cb8fb57bc54277f3d408a3971d9c767a427b86bfef0fdd7d739dac5c" );
  ]

let check_credentials (name, config, expected) () =
  let result = Core.Controller.run (config ()) in
  let actual = Conf.Fingerprint.of_result result in
  if actual <> expected then begin
    Printf.printf "--- canonical form for %s (fingerprint %s) ---\n%s\n" name actual
      (Conf.Fingerprint.canonical result);
    Alcotest.fail
      (Printf.sprintf "%s fingerprint changed: pinned %s, got %s — canonical form above" name
         expected actual)
  end

(* Telemetry pins: the metrics registry (as its lossless JSON) and the
   tracer's entries, with metrics and tracing on.  The tracer's wall-clock
   fields — [wall_us] and the dispatch spans' [wall_dur_us] argument — are
   host time and left out; everything else is simulated and deterministic. *)
let canonical_spans tracer =
  let arg = function
    | Obs.Tracer.Str s -> Printf.sprintf "%S" s
    | Obs.Tracer.Int i -> string_of_int i
    | Obs.Tracer.Float f -> Printf.sprintf "%h" f
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "recorded=%d\n" (Obs.Tracer.recorded tracer));
  Obs.Tracer.iter tracer (fun e ->
      Printf.bprintf b "%s|%s|%d|%h|%h|%s|%s\n" e.Obs.Tracer.name e.cat e.node e.ts_us e.dur_us
        (match e.phase with Obs.Tracer.Complete -> "X" | Obs.Tracer.Instant -> "i")
        (String.concat ","
           (List.filter_map
              (fun (k, v) -> if k = "wall_dur_us" then None else Some (k ^ "=" ^ arg v))
              e.args)));
  Buffer.contents b

let telemetry_on config =
  {
    config with
    Core.Config.telemetry = { Core.Config.default_telemetry with metrics = true; tracing = true };
  }

let pinned_telemetry =
  [
    ( "pbft canonical",
      (fun () -> canonical_config "pbft"),
      "2be72588e85c450930602f0638ee9683c5289f8600d0db202160379eab64233d/6ab9f59fb4ab95dabe2e4e36766260ac46271170df6312bdc9f2162b871c21e6" );
    ( "pbft loss+reliable+restart",
      (fun () -> restarting (lossy (canonical_config "pbft"))),
      "2196807c8d1a5cd85e61f19d3415ce382a3033b3ba1fe8215b53f5177e365f64/ca45fc1bdc61cd4e62571b54dcd7f366ead21ee50350114f89b5e6fd405813d7" );
    ( "hotstuff-ns loss+reliable+restart",
      (fun () -> restarting (lossy (canonical_config "hotstuff-ns"))),
      "61eeac4344a809ba48c4c477ae3425a2e5a9368dd0f5a2ff94daeb87399dde60/07bd2d2bfd32290f57046914e337eee09084160007d2e370fe4a2ad599802f24" );
  ]

let check_telemetry (name, config, expected) () =
  let result = Core.Controller.run (telemetry_on (config ())) in
  let actual =
    sha (Obs.Json.to_string (Obs.Metrics.to_json (Option.get result.metrics)))
    ^ "/" ^ sha (canonical_spans (Option.get result.spans))
  in
  if actual <> expected then
    Alcotest.fail
      (Printf.sprintf "%s telemetry fingerprint changed: pinned %s, got %s" name expected actual)

(* Boundary pins: a pbft n = 64 run cut off while its prepare broadcasts
   are still in flight, once by simulated time and once by the event cap.
   The run's event count and the number of events still queued at the end
   (the [queue.pending_end] gauge) must not depend on how the event queue
   stores pending deliveries. *)
let boundary_config ?max_time_ms ?max_events () =
  Core.Config.make "pbft" ~n:64 ~seed:1 ?max_time_ms ?max_events
    ~delay:(Net.Delay_model.Normal { mu = 250.; sigma = 50. })
    ~telemetry:{ Core.Config.default_telemetry with metrics = true }

let pinned_boundaries =
  [
    ("pbft n=64 max_time_ms", (fun () -> boundary_config ~max_time_ms:400. ()), 502, 3722);
    ("pbft n=64 max_events", (fun () -> boundary_config ~max_events:3000 ()), 3000, 4680);
  ]

let check_boundary (_, config, events, pending) () =
  let result = Core.Controller.run (config ()) in
  let pending_end =
    match List.assoc_opt "queue.pending_end" (Obs.Metrics.snapshot (Option.get result.metrics)) with
    | Some (Obs.Metrics.Gauge_v v) -> int_of_float v
    | _ -> Alcotest.fail "queue.pending_end gauge missing"
  in
  Alcotest.(check (pair int int))
    "events_processed, queue.pending_end" (events, pending)
    (result.Core.Controller.events_processed, pending_end)

let () =
  Alcotest.run "golden"
    [
      ( "fingerprints",
        List.map
          (fun (protocol, expected) ->
            Alcotest.test_case protocol `Quick (check_fingerprint (protocol, expected)))
          pinned );
      ( "fingerprints pipeline=4",
        List.map
          (fun (protocol, expected) ->
            Alcotest.test_case protocol `Quick (check_fingerprint_depth4 (protocol, expected)))
          pinned_depth4 );
      ( "fingerprints feature-on",
        List.map
          (fun ((name, _, _) as pin) -> Alcotest.test_case name `Quick (check_feature pin))
          pinned_features );
      ( "fingerprints paths",
        List.map
          (fun ((name, _, _, _) as pin) -> Alcotest.test_case name `Quick (check_path pin))
          pinned_paths );
      ( "fingerprints telemetry",
        List.map
          (fun ((name, _, _) as pin) -> Alcotest.test_case name `Quick (check_telemetry pin))
          pinned_telemetry );
      (* At most 23 characters, like the longest name above: Alcotest sizes
         its suite column by the longest suite name and cuts test names to
         fit, so a longer one would change the printed names of the other
         tests. *)
      ( "fingerprints credential",
        List.map
          (fun ((name, _, _) as pin) -> Alcotest.test_case name `Quick (check_credentials pin))
          pinned_credentials );
      ( "fingerprints boundary",
        List.map
          (fun ((name, _, _, _) as pin) -> Alcotest.test_case name `Quick (check_boundary pin))
          pinned_boundaries );
    ]
