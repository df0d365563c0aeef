(* Tests of the host-cost benchmark itself: the tracing wrapper must be
   invisible to the simulation, the layer accounting must add up, and the
   workload seed must drive the generated inputs. *)

open Perfbench
open Bftsim_core
module Registry = Bftsim_protocols.Registry
module Fingerprint = Bftsim_conformance.Fingerprint
module Fault_schedule = Bftsim_attack.Fault_schedule
module Loss_model = Bftsim_net.Loss_model

let base_protocols =
  List.filter_map
    (fun p ->
      let name = Bftsim_protocols.Protocol_intf.name p in
      if Traced.original_name name = name then Some name else None)
    (Registry.all ())

let () = Traced.register_all ()

let fingerprint config = Fingerprint.of_result (Traced.restore (Controller.run config))

let check_transparent config =
  let plain = fingerprint config in
  Span.reset ();
  let traced = fingerprint (Workloads.traced_edit config) in
  Alcotest.(check bool) "wrapper saw the handlers" true
    ((Span.snapshot ()).Span.layers.(Span.handler).Span.calls > 0);
  Alcotest.(check string) (Config.describe config) plain traced

let config ~n protocol =
  let inputs = if protocol = "async-ba" then Config.Random_binary else Config.Distinct in
  Config.make ~n ~seed:11 ~inputs protocol

let transparent_at n () =
  Alcotest.(check int) "all registered protocols" 11 (List.length base_protocols);
  List.iter (fun p -> check_transparent (config ~n p)) base_protocols

let transparent_loss_restart () =
  List.iter
    (fun p ->
      check_transparent
        {
          (config ~n:7 p) with
          Config.loss = Loss_model.make ~drop:0.05 ~dup:0.01 ~reorder_ms:50. ();
          reliable = true;
          chaos = Fault_schedule.crash_and_restart ~nodes:[ 2 ] ~crash_ms:1500. ~restart_ms:3000.;
          max_time_ms = 30_000.;
        })
    base_protocols

let span_allocates_nothing () =
  Span.reset ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Span.enter ();
    Span.enter ();
    Span.leave Span.send 4;
    Span.leave Span.handler 1
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "words" 0. (w1 -. w0);
  let s = Span.snapshot () in
  Alcotest.(check int) "handler calls" 1000 s.Span.layers.(Span.handler).Span.calls;
  Alcotest.(check int) "send recipients" 4000 s.Span.layers.(Span.send).Span.units

(* Self times partition the time spent inside layers (their sum is the time
   of the outermost spans), so self times plus the event-loop residual add
   up to the traced pass time with nothing counted twice or negative. *)
let layers_add_up name () =
  let w = Workloads.make ~small:true name ~seed:5 in
  let t = Measure.traced_pass w in
  let self = Span.self_total t.Measure.span in
  let residual = Measure.residual_s t in
  let pass = t.Measure.pass.Measure.secs in
  Alcotest.(check int) "spans balanced" 0 !Span.depth;
  Alcotest.(check bool) "handlers traced" true (t.Measure.span.Span.layers.(Span.handler).Span.calls > 0);
  Alcotest.(check bool) "sends traced" true (t.Measure.span.Span.layers.(Span.send).Span.units > 0);
  Array.iter
    (fun l -> Alcotest.(check bool) (l.Span.name ^ " self time >= 0") true (l.Span.self_s >= 0.))
    t.Measure.span.Span.layers;
  Alcotest.(check bool) "self times = top-level span time" true
    (Float.abs (self -. t.Measure.span.Span.top_s) <= 1e-6 *. pass);
  Alcotest.(check bool) "residual >= 0" true (residual >= 0.)

let seed_drives_inputs name () =
  let inputs seed = (Workloads.make name ~seed).Workloads.inputs in
  Alcotest.(check (list string)) "same seed, same inputs" (inputs 1) (inputs 1);
  Alcotest.(check bool) "other seed, other inputs" true (inputs 1 <> inputs 2)

(* The host-speed reference is a positive time, and a pass measured at the
   nominal reference speed keeps its wall time. *)
let reference_rescales () =
  Alcotest.(check bool) "reference time > 0" true (Calibrate.reference_s () > 0.);
  Alcotest.(check (float 1e-12)) "nominal speed" 2.5
    (Calibrate.rescale ~reference:Calibrate.nominal_s 2.5);
  Alcotest.(check (float 1e-12)) "half speed" 2.5
    (Calibrate.rescale ~reference:(2. *. Calibrate.nominal_s) 5.)

let () =
  Alcotest.run "perfbench"
    [
      ( "wrapper",
        [
          Alcotest.test_case "fingerprints unchanged at n=4" `Quick (transparent_at 4);
          Alcotest.test_case "fingerprints unchanged at n=16" `Quick (transparent_at 16);
          Alcotest.test_case "fingerprints unchanged under loss+restart" `Quick
            transparent_loss_restart;
          Alcotest.test_case "span bookkeeping allocates nothing" `Quick span_allocates_nothing;
        ] );
      ("calibrate", [ Alcotest.test_case "reference rescales pass times" `Quick reference_rescales ]);
      ( "layers",
        List.map
          (fun name -> Alcotest.test_case (name ^ " adds up") `Quick (layers_add_up name))
          Workloads.names );
      ( "inputs",
        List.map
          (fun name -> Alcotest.test_case (name ^ " follows the seed") `Quick (seed_drives_inputs name))
          Workloads.names );
    ]
