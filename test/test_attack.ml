(* Tests for the abstracted-global-attacker framework and the generic
   attacker implementations (fail-stop, partition, delay injection). *)

open Bftsim_sim
open Bftsim_net
open Bftsim_attack

(* A self-contained attacker environment over mutable test state. *)
let make_env ?(n = 8) ?(f = 2) ?(now = 0.) () =
  let corrupted = Hashtbl.create 8 in
  let injected = ref [] in
  let timers = ref [] in
  let now_ref = ref now in
  let env =
    {
      Attacker.n;
      f;
      lambda_ms = 1000.;
      now = (fun () -> Time.of_ms !now_ref);
      rng = Rng.create 1;
      topology = Topology.fully_connected n;
      set_timer =
        (fun ~delay_ms ~tag payload ->
          timers := (delay_ms, tag, payload) :: !timers;
          List.length !timers);
      inject =
        (fun ~src ~dst ~delay_ms ~tag ~size:_ payload ->
          injected := (src, dst, delay_ms, tag, payload) :: !injected);
      corrupt =
        (fun node ->
          if Hashtbl.mem corrupted node || Hashtbl.length corrupted >= f then false
          else begin
            Hashtbl.replace corrupted node ();
            true
          end);
      is_corrupted = Hashtbl.mem corrupted;
      corrupted =
        (fun () -> Hashtbl.fold (fun k () acc -> k :: acc) corrupted [] |> List.sort compare);
    }
  in
  (env, now_ref, injected, timers)

let msg ?(src = 0) ?(dst = 1) ?(sent_at = 0.) ?(tag = "m") () =
  Message.make ~id:1 ~src ~dst ~sent_at:(Time.of_ms sent_at) ~tag (Message.Blob "x")

let is_deliver = function Attacker.Deliver -> true | Attacker.Drop -> false

(* --- passthrough & helpers --- *)

let test_passthrough () =
  let env, _, _, _ = make_env () in
  Alcotest.(check bool) "delivers" true (is_deliver (Attacker.passthrough.attack env (msg ())))

let test_corruption_budget () =
  let env, _, _, _ = make_env ~f:2 () in
  Alcotest.(check bool) "first corruption ok" true (env.corrupt 0);
  Alcotest.(check bool) "second corruption ok" true (env.corrupt 1);
  Alcotest.(check bool) "budget exhausted" false (env.corrupt 2);
  Alcotest.(check bool) "re-corruption refused" false (env.corrupt 0);
  Alcotest.(check (list int)) "ledger" [ 0; 1 ] (env.corrupted ())

let test_drop_from_corrupted () =
  let env, _, _, _ = make_env () in
  ignore (env.corrupt 3);
  Alcotest.(check bool) "corrupted sender dropped" false
    (is_deliver (Attacker.drop_from_corrupted env (msg ~src:3 ())));
  Alcotest.(check bool) "honest sender delivered" true
    (is_deliver (Attacker.drop_from_corrupted env (msg ~src:4 ())))

let test_delay_all () =
  let env, _, _, _ = make_env () in
  let attacker = Attacker.delay_all ~extra_ms:500. in
  let m = msg () in
  m.Message.delay_ms <- 100.;
  Alcotest.(check bool) "delivers" true (is_deliver (attacker.attack env m));
  Alcotest.(check (float 1e-9)) "delay extended" 600. m.Message.delay_ms

(* --- fail-stop --- *)

let test_failstop_from_start () =
  let env, _, _, _ = make_env () in
  let attacker = Failstop.from_start ~nodes:[ 1; 2 ] in
  Alcotest.(check bool) "victim silenced" false (is_deliver (attacker.attack env (msg ~src:1 ())));
  Alcotest.(check bool) "other node fine" true (is_deliver (attacker.attack env (msg ~src:0 ())))

let test_failstop_at_time () =
  let env, now_ref, _, _ = make_env () in
  let attacker = Failstop.at_time ~nodes:[ 5 ] ~at_ms:1000. in
  Alcotest.(check bool) "honest before the crash" true
    (is_deliver (attacker.attack env (msg ~src:5 ())));
  now_ref := 1500.;
  Alcotest.(check bool) "silenced after the crash" false
    (is_deliver (attacker.attack env (msg ~src:5 ())))

(* --- partition --- *)

let partition_spec ?(mode = Partition_attack.Drop_cross_traffic) () =
  Partition_attack.
    { groups = [| 0; 0; 0; 0; 1; 1; 1; 1 |]; start_ms = 1000.; heal_ms = 5000.; mode }

let test_partition_window () =
  let env, now_ref, _, _ = make_env () in
  let attacker = Partition_attack.make (partition_spec ()) in
  let cross () = msg ~src:0 ~dst:7 ~sent_at:!now_ref () in
  Alcotest.(check bool) "before the attack" true (is_deliver (attacker.attack env (cross ())));
  now_ref := 2000.;
  Alcotest.(check bool) "during: cross dropped" false (is_deliver (attacker.attack env (cross ())));
  Alcotest.(check bool) "during: intra delivered" true
    (is_deliver (attacker.attack env (msg ~src:0 ~dst:3 ())));
  now_ref := 5000.;
  Alcotest.(check bool) "at heal boundary delivered" true (is_deliver (attacker.attack env (cross ())))

let test_partition_delay_mode () =
  let env, now_ref, _, _ = make_env () in
  let attacker =
    Partition_attack.make (partition_spec ~mode:(Partition_attack.Delay_until_heal { jitter_ms = 0. }) ())
  in
  now_ref := 2000.;
  let m = msg ~src:1 ~dst:6 ~sent_at:2000. () in
  m.Message.delay_ms <- 250.;
  Alcotest.(check bool) "delivered (buffered)" true (is_deliver (attacker.attack env m));
  Alcotest.(check (float 1e-9)) "released at heal" 5000.
    (Time.to_ms (Message.arrival_time m))

let test_partition_validation () =
  match
    Partition_attack.make
      { groups = [| 0; 1 |]; start_ms = 10.; heal_ms = 5.; mode = Partition_attack.Drop_cross_traffic }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "heal before start accepted"

let test_two_subnets_builder () =
  let env, now_ref, _, _ = make_env () in
  let attacker =
    Partition_attack.two_subnets ~n:8 ~first_size:4 ~start_ms:0. ~heal_ms:1000.
      Partition_attack.Drop_cross_traffic
  in
  now_ref := 500.;
  Alcotest.(check bool) "0 -> 4 crosses" false
    (is_deliver (attacker.attack env (msg ~src:0 ~dst:4 ())));
  Alcotest.(check bool) "4 -> 7 intra" true (is_deliver (attacker.attack env (msg ~src:4 ~dst:7 ())))

(* --- fault schedules --- *)

let test_schedule_crash_windows () =
  let plan =
    Fault_schedule.normalize
      [
        { Fault_schedule.at_ms = 1000.; action = Fault_schedule.Crash 2 };
        { Fault_schedule.at_ms = 5000.; action = Fault_schedule.Recover 2 };
      ]
  in
  let down at_ms = Fault_schedule.crashed_at plan ~node:2 ~at_ms in
  Alcotest.(check bool) "up before" false (down 999.);
  Alcotest.(check bool) "down at the crash instant" true (down 1000.);
  Alcotest.(check bool) "down in between" true (down 3000.);
  Alcotest.(check bool) "up again at recovery" false (down 5000.);
  Alcotest.(check bool) "other node untouched" false
    (Fault_schedule.crashed_at plan ~node:3 ~at_ms:3000.);
  Alcotest.(check (option (float 1e-9))) "next recovery" (Some 5000.)
    (Fault_schedule.next_recovery_after plan ~node:2 ~at_ms:1000.)

(* The plan's send-time verdict, as the transport's wire asks it. *)
let test_schedule_crash_verdicts () =
  let plan =
    Fault_schedule.normalize
      (Fault_schedule.crash_and_recover ~nodes:[ 1 ] ~crash_ms:1000. ~recover_ms:5000.)
  in
  let admit m = Fault_schedule.admit plan m ~at_ms:(Time.to_ms m.Message.sent_at) in
  Alcotest.(check bool) "sender up: delivered" true (admit (msg ~src:1 ()));
  Alcotest.(check bool) "sender down: dropped" false (admit (msg ~src:1 ~sent_at:2000. ()));
  Alcotest.(check bool) "down sender's self-delivery dropped too" false
    (admit (msg ~src:1 ~dst:1 ~sent_at:2000. ()));
  (* Whether the receiver is down when the message arrives is decided on
     arrival, by the transport's down-node stage (the arrival instant is
     only final after the loss model). *)
  let m = msg ~src:0 ~dst:1 ~sent_at:500. () in
  m.Message.delay_ms <- 1000.;
  Alcotest.(check bool) "receiver down at arrival: left to the transport" true (admit m);
  Alcotest.(check bool) "recovered sender: delivered" true (admit (msg ~src:1 ~sent_at:6000. ()))

let test_schedule_partition_heal () =
  let plan =
    [
      { Fault_schedule.at_ms = 1000.; action = Fault_schedule.Partition [ [ 0; 1 ]; [ 2; 3 ] ] };
      { Fault_schedule.at_ms = 4000.; action = Fault_schedule.Heal };
    ]
  in
  Alcotest.(check bool) "cross-group separated" true
    (Fault_schedule.separated plan ~src:0 ~dst:2 ~at_ms:2000.);
  Alcotest.(check bool) "intra-group connected" false
    (Fault_schedule.separated plan ~src:2 ~dst:3 ~at_ms:2000.);
  Alcotest.(check bool) "unlisted nodes share the residual group" false
    (Fault_schedule.separated plan ~src:6 ~dst:7 ~at_ms:2000.);
  Alcotest.(check bool) "listed vs unlisted separated" true
    (Fault_schedule.separated plan ~src:0 ~dst:6 ~at_ms:2000.);
  Alcotest.(check bool) "healed" false (Fault_schedule.separated plan ~src:0 ~dst:2 ~at_ms:4000.);
  Alcotest.(check bool) "verdict drops cross traffic" false
    (Fault_schedule.admit plan (msg ~src:0 ~dst:2 ~sent_at:2000. ()) ~at_ms:2000.);
  Alcotest.(check bool) "self-addressed crosses no partition" true
    (Fault_schedule.admit plan (msg ~src:0 ~dst:0 ~sent_at:2000. ()) ~at_ms:2000.);
  Alcotest.(check bool) "verdict delivers after the heal" true
    (Fault_schedule.admit plan (msg ~src:0 ~dst:2 ~sent_at:4000. ()) ~at_ms:4000.)

(* Loss and dup windows are overrides of the wire's loss model; spikes are
   part of the send-time verdict. *)
let test_schedule_bursts () =
  let window action = [ { Fault_schedule.at_ms = 0.; action } ] in
  let model plan ?(base = Loss_model.none) at_ms = Fault_schedule.loss_model plan ~base ~at_ms in
  let draw m =
    Loss_model.sample ~model:m (Loss_model.state Loss_model.none) (Rng.create 1) ~src:0 ~dst:1
  in
  let certain_loss = window (Fault_schedule.Loss_burst { p = 1.; until_ms = 2000. }) in
  Alcotest.(check bool) "a loss window is a loss window" true
    (Fault_schedule.loss_windows certain_loss);
  Alcotest.(check bool) "p=1 loss drops" false (draw (model certain_loss 1000.)).Loss_model.deliver;
  Alcotest.(check bool) "loss window over: the base model itself" true
    (model certain_loss 3000. == Loss_model.none);
  let no_loss = window (Fault_schedule.Loss_burst { p = 0.; until_ms = 2000. }) in
  Alcotest.(check bool) "p=0 loss is harmless" true (draw (model no_loss 1000.)).Loss_model.deliver;
  let base = Loss_model.make ~drop:0.1 ~dup:0.5 () in
  let combined = model (window (Fault_schedule.Loss_burst { p = 0.2; until_ms = 2000. })) ~base 1000. in
  Alcotest.(check (float 1e-12)) "drops combine as independent events" 0.28
    combined.Loss_model.drop;
  Alcotest.(check (float 0.)) "dup untouched by a loss window" 0.5 combined.Loss_model.dup;
  Alcotest.(check (float 0.)) "a window over a lossless base is exact" 0.05
    (model (window (Fault_schedule.Loss_burst { p = 0.05; until_ms = 2000. })) 1000.)
      .Loss_model.drop;
  let spike = window (Fault_schedule.Delay_spike { extra_ms = 300.; until_ms = 2000. }) in
  Alcotest.(check bool) "a spike is no loss window" false (Fault_schedule.loss_windows spike);
  let m = msg ~sent_at:1000. () in
  m.Message.delay_ms <- 100.;
  Alcotest.(check bool) "spiked but delivered" true (Fault_schedule.admit spike m ~at_ms:1000.);
  Alcotest.(check (float 1e-9)) "spike added" 400. m.Message.delay_ms;
  let dup = window (Fault_schedule.Dup_burst { p = 1.; until_ms = 2000. }) in
  let v = draw (model dup 1000.) in
  Alcotest.(check bool) "original delivered" true v.Loss_model.deliver;
  Alcotest.(check bool) "copy made" true v.Loss_model.duplicate

(* GST steps fire on controller alarms: every message sent after the step
   takes the new delay model's delay. *)
let test_schedule_gst_shift () =
  let module Core = Bftsim_core in
  let chaos =
    [ { Fault_schedule.at_ms = 300.; action = Fault_schedule.Gst_shift (Delay_model.Constant 70.) } ]
  in
  let config =
    Core.Config.make "pbft" ~n:4 ~chaos ~record_trace:true ~delay:(Delay_model.Constant 20.)
      ~decisions_target:20
  in
  let r = Core.Controller.run config in
  let delays =
    List.concat_map
      (fun ((src, dst, _), ds) -> if src = dst then [] else List.filter_map Fun.id ds)
      (Core.Trace.delays (Option.get r.Core.Controller.trace))
  in
  Alcotest.(check (list (float 1e-9))) "delay model overridden at the step" [ 20.; 70. ]
    (List.sort_uniq compare delays)

let test_schedule_validate () =
  let rejected plan =
    match Fault_schedule.validate ~n:8 plan with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.(check bool) "node out of range" true
    (rejected [ { Fault_schedule.at_ms = 0.; action = Fault_schedule.Crash 8 } ]);
  Alcotest.(check bool) "negative time" true
    (rejected [ { Fault_schedule.at_ms = -1.; action = Fault_schedule.Heal } ]);
  Alcotest.(check bool) "probability out of range" true
    (rejected
       [ { Fault_schedule.at_ms = 0.; action = Fault_schedule.Loss_burst { p = 1.5; until_ms = 10. } } ]);
  Alcotest.(check bool) "window ends before start" true
    (rejected
       [ { Fault_schedule.at_ms = 100.; action = Fault_schedule.Dup_burst { p = 0.5; until_ms = 50. } } ]);
  Alcotest.(check bool) "overlapping partition groups" true
    (rejected [ { Fault_schedule.at_ms = 0.; action = Fault_schedule.Partition [ [ 0; 1 ]; [ 1; 2 ] ] } ]);
  Alcotest.(check bool) "well-formed plan accepted" false
    (rejected (Fault_schedule.crash_and_recover ~nodes:[ 0; 1 ] ~crash_ms:0. ~recover_ms:5000.))

let test_schedule_of_string_roundtrip () =
  let spec = "crash:1@0;loss:0.25@0-8000;partition:0,1|2,3@2000;heal@4000;recover:1@15000;gst:normal:100,10@15000" in
  match Fault_schedule.of_string spec with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Alcotest.(check string) "describe round-trips" spec (Fault_schedule.describe plan);
    Alcotest.(check bool) "parse error surfaces" true
      (Result.is_error (Fault_schedule.of_string "crash:zero@0"));
    Alcotest.(check bool) "unknown action surfaces" true
      (Result.is_error (Fault_schedule.of_string "meteor@0"))

(* Restart steps: parse/describe round-trip, the helper builders, and the
   validation rule that a restart must follow a crash of the same node
   (restart = recover with volatile state lost). *)
let test_schedule_restart () =
  let spec = "crash:2@200;restart:2@700" in
  (match Fault_schedule.of_string spec with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Alcotest.(check string) "describe round-trips" spec (Fault_schedule.describe plan);
    Alcotest.(check (list int)) "restarts listed" [ 2 ] (Fault_schedule.restarts plan);
    Fault_schedule.validate ~n:4 plan);
  let built = Fault_schedule.crash_and_restart ~nodes:[ 1; 3 ] ~crash_ms:100. ~restart_ms:900. in
  Fault_schedule.validate ~n:4 built;
  Alcotest.(check (list int)) "builder restarts both" [ 1; 3 ]
    (List.sort compare (Fault_schedule.restarts built));
  let rejected plan =
    match Fault_schedule.validate ~n:8 plan with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.(check bool) "restart without a crash rejected" true
    (rejected [ { Fault_schedule.at_ms = 500.; action = Fault_schedule.Restart 2 } ]);
  Alcotest.(check bool) "restart node out of range rejected" true
    (rejected (Fault_schedule.crash_and_restart ~nodes:[ 9 ] ~crash_ms:0. ~restart_ms:100.));
  Alcotest.(check bool) "restart parse error surfaces" true
    (Result.is_error (Fault_schedule.of_string "restart:two@0"))

(* Corruption and chaos crashes are different faults: a chaos [Recover]
   restarts a crashed node, but an adaptively corrupted node stays silenced
   by [drop_from_corrupted] forever — the wire asks the plan first and the
   attacker after it. *)
let test_corruption_survives_recovery () =
  let module Core = Bftsim_core in
  let plan = Fault_schedule.crash_and_recover ~nodes:[ 3 ] ~crash_ms:0. ~recover_ms:1000. in
  Alcotest.(check bool) "the plan alone delivers after recovery" true
    (Fault_schedule.admit plan (msg ~src:3 ~sent_at:2000. ()) ~at_ms:2000.);
  let silencer =
    {
      Attacker.passthrough with
      Attacker.on_start = (fun env -> ignore (env.Attacker.corrupt 3 : bool));
      attack = Attacker.drop_from_corrupted;
    }
  in
  let config = Core.Config.make "pbft" ~n:4 ~chaos:plan ~record_trace:true ~decisions_target:3 in
  let r = Core.Controller.run ~attacker:silencer config in
  let entries = Core.Trace.entries (Option.get r.Core.Controller.trace) in
  Alcotest.(check bool) "node 3 sends after its recovery" true
    (List.exists
       (fun (e : Core.Trace.entry) -> e.kind = Core.Trace.Send && e.node = 3 && e.at_ms >= 1000.)
       entries);
  Alcotest.(check bool) "none of them is delivered: corruption is permanent" false
    (List.exists
       (fun (e : Core.Trace.entry) -> e.kind = Core.Trace.Deliver && e.peer = 3 && e.node <> 3)
       entries)

(* --- ADD+ attacks (unit level; end-to-end covered in test_integration) --- *)

let test_add_static_marks_victims () =
  let env, _, _, _ = make_env ~f:3 () in
  let attacker = Bftsim_protocols.Addplus_attacks.static ~f:3 in
  attacker.on_start env;
  Alcotest.(check (list int)) "first f nodes corrupted" [ 0; 1; 2 ] (env.corrupted ());
  Alcotest.(check bool) "their messages dropped" false
    (is_deliver (attacker.attack env (msg ~src:0 ())))

let test_add_adaptive_corrupts_winner () =
  let env, now_ref, _, timers = make_env ~f:3 () in
  let attacker = Bftsim_protocols.Addplus_attacks.rushing_adaptive () in
  (* Replay an iteration's credential flow through the attacker. *)
  let creds =
    List.init 8 (fun node ->
        Bftsim_crypto.Vrf.eval ~seed:1 ~node ~input:"add|0")
  in
  List.iter
    (fun (c : Bftsim_crypto.Vrf.evaluation) ->
      let m =
        Message.make ~id:c.node ~src:c.node ~dst:0 ~sent_at:Time.zero ~tag:"add-credential"
          (Bftsim_protocols.Add_common.Add_credential { iter = 0; credential = c })
      in
      ignore (attacker.attack env m))
    creds;
  Alcotest.(check int) "one corruption timer armed" 1 (List.length !timers);
  (* Fire the armed timer. *)
  let delay_ms, tag, payload = List.hd !timers in
  now_ref := delay_ms;
  attacker.on_time_event env
    { Timer.id = 1; owner = Timer.attacker_owner; deadline = Time.of_ms delay_ms; tag; payload };
  let winner = (Option.get (Bftsim_crypto.Vrf.winner creds)).Bftsim_crypto.Vrf.node in
  Alcotest.(check (list int)) "exactly the VRF winner corrupted" [ winner ] (env.corrupted ())

let () =
  Alcotest.run "attack"
    [
      ( "framework",
        [
          Alcotest.test_case "passthrough" `Quick test_passthrough;
          Alcotest.test_case "corruption budget" `Quick test_corruption_budget;
          Alcotest.test_case "drop_from_corrupted" `Quick test_drop_from_corrupted;
          Alcotest.test_case "delay_all" `Quick test_delay_all;
        ] );
      ( "failstop",
        [
          Alcotest.test_case "from start" `Quick test_failstop_from_start;
          Alcotest.test_case "mid-run crash" `Quick test_failstop_at_time;
        ] );
      ( "partition",
        [
          Alcotest.test_case "attack window" `Quick test_partition_window;
          Alcotest.test_case "delay-until-heal mode" `Quick test_partition_delay_mode;
          Alcotest.test_case "validation" `Quick test_partition_validation;
          Alcotest.test_case "two_subnets builder" `Quick test_two_subnets_builder;
        ] );
      ( "fault-schedule",
        [
          Alcotest.test_case "crash windows" `Quick test_schedule_crash_windows;
          Alcotest.test_case "crash verdicts" `Quick test_schedule_crash_verdicts;
          Alcotest.test_case "partition and heal" `Quick test_schedule_partition_heal;
          Alcotest.test_case "loss, spike and dup bursts" `Quick test_schedule_bursts;
          Alcotest.test_case "gst shift overrides the delay model" `Quick test_schedule_gst_shift;
          Alcotest.test_case "validation" `Quick test_schedule_validate;
          Alcotest.test_case "of_string round-trip" `Quick test_schedule_of_string_roundtrip;
          Alcotest.test_case "restart steps" `Quick test_schedule_restart;
          Alcotest.test_case "corruption survives recovery" `Quick
            test_corruption_survives_recovery;
        ] );
      ( "addplus",
        [
          Alcotest.test_case "static picks scheduled leaders" `Quick test_add_static_marks_victims;
          Alcotest.test_case "adaptive corrupts the revealed winner" `Quick
            test_add_adaptive_corrupts_winner;
        ] );
    ]
