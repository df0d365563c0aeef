(* Golden-fingerprint regression tests: one canonical configuration per
   paper protocol, with the result fingerprint pinned.  Any change to the
   engine, a protocol, the RNG, or the delay pipeline that alters observable
   behaviour shows up here as a mismatch — the canonical form is printed so
   the diff against the old behaviour is readable.  If a change is
   intentional, re-pin the hashes from that output. *)

module Core = Bftsim_core
module Conf = Bftsim_conformance
module Net = Bftsim_net

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
    ]
