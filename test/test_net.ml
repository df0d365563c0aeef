(* Tests for the network module: envelopes, delay models (including the
   mapping to the paper's three network models), topology and counters. *)

open Bftsim_sim
open Bftsim_net

let rng () = Rng.create 1234

(* --- Message --- *)

let test_message_make () =
  let m = Message.make ~id:7 ~src:1 ~dst:2 ~sent_at:(Time.of_ms 100.) (Message.Blob "hello") in
  Alcotest.(check int) "id" 7 m.Message.id;
  Alcotest.(check string) "default tag" "msg" m.Message.msg.Message.tag;
  Alcotest.(check int) "default size" Message.default_size m.Message.msg.Message.size;
  Alcotest.(check (float 1e-9)) "no delay yet" 0. m.Message.delay_ms

let test_message_arrival () =
  let m = Message.make ~id:1 ~src:0 ~dst:1 ~sent_at:(Time.of_ms 100.) (Message.Blob "x") in
  m.Message.delay_ms <- 40.;
  Alcotest.(check (float 1e-9)) "arrival = sent + delay" 140. (Time.to_ms (Message.arrival_time m))

let test_message_printer_registry () =
  Alcotest.(check string) "blob fallback" "Blob(hi)" (Message.payload_to_string (Message.Blob "hi"));
  (* Registered printers see protocol payloads. *)
  let s = Message.payload_to_string (Bftsim_protocols.Pbft.Prepare { view = 1; slot = 2; value = "v" }) in
  Alcotest.(check string) "pbft prepare rendered" "Prepare(v=1,s=2,v)" s

(* --- Delay_model --- *)

(* One draw, read back from the cell [Delay_model.sample] writes. *)
let draw m r =
  let cell = [| nan |] in
  Delay_model.sample m r cell;
  cell.(0)

let test_delay_constant () =
  let m = Delay_model.Constant 42. in
  for _ = 1 to 10 do
    Alcotest.(check (float 1e-9)) "constant" 42. (draw m (rng ()))
  done;
  Alcotest.(check (option (float 1e-9))) "bound" (Some 42.) (Delay_model.upper_bound m)

let test_delay_uniform_bounds () =
  let m = Delay_model.Uniform { lo = 10.; hi = 20. } in
  let r = rng () in
  for _ = 1 to 1000 do
    let v = draw m r in
    if v < 10. || v >= 20. then Alcotest.failf "uniform delay out of bounds: %f" v
  done;
  Alcotest.(check (option (float 1e-9))) "upper bound" (Some 20.) (Delay_model.upper_bound m)

let test_delay_normal_nonnegative () =
  (* Truncation matters when mu is close to 0 relative to sigma. *)
  let m = Delay_model.normal ~mu:10. ~sigma:100. in
  let r = rng () in
  for _ = 1 to 5000 do
    let v = draw m r in
    if v < 0. then Alcotest.failf "negative delay: %f" v
  done;
  Alcotest.(check (option (float 1e-9))) "normal unbounded" None (Delay_model.upper_bound m)

let test_delay_bounded () =
  let m = Delay_model.bounded (Delay_model.normal ~mu:250. ~sigma:50.) ~bound:260. in
  let r = rng () in
  for _ = 1 to 2000 do
    let v = draw m r in
    if v > 260. then Alcotest.failf "bound violated: %f" v
  done;
  Alcotest.(check (option (float 1e-9))) "bound reported" (Some 260.) (Delay_model.upper_bound m)

let test_delay_mean () =
  Alcotest.(check (float 1e-9)) "uniform mean" 15.
    (Delay_model.mean (Delay_model.Uniform { lo = 10.; hi = 20. }));
  Alcotest.(check (float 1e-9)) "normal mean" 250. (Delay_model.mean (Delay_model.normal ~mu:250. ~sigma:50.));
  Alcotest.(check (float 1e-9)) "exp mean" 300. (Delay_model.mean (Delay_model.Exponential { mean = 300. }))

let test_delay_describe_parse_roundtrip () =
  let cases =
    [ "constant:100"; "uniform:10,20"; "normal:250,50"; "exp:300"; "poisson:250";
      "bounded:normal:250,50@1000" ]
  in
  List.iter
    (fun s ->
      match Delay_model.of_string s with
      | Error e -> Alcotest.failf "parse %s failed: %s" s e
      | Ok m -> ignore (Delay_model.describe m))
    cases;
  (match Delay_model.of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense parsed");
  (match Delay_model.of_string "uniform:20,10" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inverted uniform accepted");
  match Delay_model.of_string "normal:250,50" with
  | Ok (Delay_model.Normal { mu; sigma }) ->
    Alcotest.(check (float 1e-9)) "mu" 250. mu;
    Alcotest.(check (float 1e-9)) "sigma" 50. sigma
  | _ -> Alcotest.fail "normal parse shape"

let test_delay_lognormal () =
  let m = Delay_model.log_normal ~mu:1.5 ~sigma:0.5 in
  let r = rng () in
  for _ = 1 to 2000 do
    let v = draw m r in
    if v <= 0. || not (Float.is_finite v) then Alcotest.failf "lognormal sample out of range: %f" v
  done;
  Alcotest.(check (option (float 1e-9))) "lognormal unbounded" None (Delay_model.upper_bound m);
  (* E[LogN(mu, sigma)] = exp(mu + sigma^2/2). *)
  Alcotest.(check (float 1e-9)) "lognormal mean" (Float.exp (1.5 +. (0.5 *. 0.5 /. 2.)))
    (Delay_model.mean m);
  (match Delay_model.of_string "lognormal:1.5,0.5" with
  | Ok (Delay_model.LogNormal { mu; sigma }) ->
    Alcotest.(check (float 1e-9)) "mu" 1.5 mu;
    Alcotest.(check (float 1e-9)) "sigma" 0.5 sigma
  | _ -> Alcotest.fail "lognormal parse shape");
  match Delay_model.of_string "logn:0,1" with
  | Ok (Delay_model.LogNormal _) -> ()
  | _ -> Alcotest.fail "logn alias rejected"

let test_delay_bounded_mean_truncated () =
  (* min(mean base, bound) would report 250 here; the truncated mean must be
     strictly below the bound because clipping moves the upper tail down. *)
  let m = Delay_model.bounded (Delay_model.normal ~mu:250. ~sigma:50.) ~bound:250. in
  let est = Delay_model.mean m in
  if est >= 250. then Alcotest.failf "truncated mean not below bound: %f" est;
  if est < 200. then Alcotest.failf "truncated mean implausibly low: %f" est;
  (* Pure function of the model: repeated calls agree exactly. *)
  Alcotest.(check (float 0.)) "deterministic estimate" est (Delay_model.mean m)

(* Generator covering every Delay_model constructor, with parameters drawn so
   that printf "%g" round-trips them exactly (small integers scaled by 0.5). *)
let delay_model_gen =
  let open QCheck.Gen in
  let g_float = map (fun k -> float_of_int k /. 2.) (int_range 0 2000) in
  let g_pos = map (fun k -> float_of_int (k + 1) /. 2.) (int_range 0 2000) in
  let leaf =
    oneof
      [
        map (fun ms -> Delay_model.Constant ms) g_float;
        map2 (fun lo span -> Delay_model.Uniform { lo; hi = lo +. span }) g_float g_pos;
        map2 (fun mu sigma -> Delay_model.Normal { mu; sigma }) g_float g_pos;
        map (fun mean -> Delay_model.Exponential { mean }) g_pos;
        map (fun mean -> Delay_model.Poisson { mean }) g_pos;
        map2 (fun mu sigma -> Delay_model.LogNormal { mu; sigma }) g_float g_pos;
      ]
  in
  oneof [ leaf; map2 (fun base bound -> Delay_model.Bounded { base; bound }) leaf g_pos ]

let prop_delay_cli_roundtrip =
  QCheck.Test.make ~name:"of_string (to_cli_string d) = d for every constructor" ~count:500
    (QCheck.make ~print:Delay_model.describe delay_model_gen) (fun m ->
      match Delay_model.of_string (Delay_model.to_cli_string m) with
      | Ok m' -> m' = m
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

let prop_delay_samples_nonnegative_finite =
  let model_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun ms -> Delay_model.Constant (Float.abs ms)) (float_bound_exclusive 1e4);
          map2
            (fun lo span -> Delay_model.Uniform { lo = Float.abs lo; hi = Float.abs lo +. Float.abs span +. 1. })
            (float_bound_exclusive 1e3) (float_bound_exclusive 1e3);
          map2
            (fun mu sigma -> Delay_model.Normal { mu = Float.abs mu; sigma = Float.abs sigma })
            (float_bound_exclusive 1e3) (float_bound_exclusive 1e3);
          map (fun mean -> Delay_model.Exponential { mean = Float.abs mean +. 1. }) (float_bound_exclusive 1e3);
        ])
  in
  QCheck.Test.make ~name:"all delay models sample nonnegative finite values" ~count:200
    (QCheck.make model_gen) (fun m ->
      let r = rng () in
      List.for_all
        (fun _ ->
          let v = draw m r in
          Float.is_finite v && v >= 0.)
        (List.init 50 (fun i -> i)))

(* --- Topology --- *)

let test_topology_default () =
  let t = Topology.fully_connected 8 in
  Alcotest.(check int) "n" 8 (Topology.n t);
  Alcotest.(check int) "no zones" 0 (Topology.zone_count t)

let test_topology_validation () =
  match Topology.fully_connected 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n = 0 accepted"

let test_topology_zones () =
  match Topology.of_zone_spec "geo3" ~n:7 with
  | Error e -> Alcotest.failf "geo3 rejected: %s" e
  | Ok t ->
    Alcotest.(check int) "zone count" 3 (Topology.zone_count t);
    (* Round-robin placement. *)
    Alcotest.(check (option int)) "node 0 zone" (Some 0) (Topology.zone_of t 0);
    Alcotest.(check (option int)) "node 4 zone" (Some 1) (Topology.zone_of t 4);
    Alcotest.(check string) "zone name" "eu-west" (Topology.zone_name t 1);
    (* Matrix symmetry: rtt(a,b) = rtt(b,a) for every node pair. *)
    for a = 0 to 6 do
      for b = 0 to 6 do
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "rtt symmetric %d,%d" a b)
          (Topology.zone_rtt_ms t ~a ~b)
          (Topology.zone_rtt_ms t ~a:b ~b:a)
      done
    done;
    (* One-way zone delay is half the RTT; nodes 0 and 1 sit in different
       zones of geo3 (us-east / eu-west, 80 ms RTT). *)
    Alcotest.(check (float 1e-9)) "one-way = rtt/2" 40. (Topology.zone_delay_ms t ~src:0 ~dst:1);
    Alcotest.(check (float 1e-9)) "intra-zone rtt" Topology.intra_rtt
      (Topology.zone_rtt_ms t ~a:0 ~b:3)

let test_topology_zone_specs () =
  (match Topology.zones_of_spec "uniform:4@120" with
  | Ok (names, m) ->
    Alcotest.(check int) "k zones" 4 (Array.length names);
    Alcotest.(check (float 1e-9)) "uniform rtt" 120. m.(0).(3);
    Alcotest.(check (float 1e-9)) "diagonal intra" Topology.intra_rtt m.(2).(2)
  | Error e -> Alcotest.failf "uniform spec rejected: %s" e);
  (match Topology.zones_of_spec "geo5" with
  | Ok (names, _) -> Alcotest.(check int) "geo5 zones" 5 (Array.length names)
  | Error e -> Alcotest.failf "geo5 rejected: %s" e);
  match Topology.zones_of_spec "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense zone spec accepted"

(* --- Network --- *)

let make_msg ~src ~dst = Message.make ~id:1 ~src ~dst ~sent_at:Time.zero (Message.Blob "x")

let test_network_assigns_delay () =
  let net =
    Network.create ~delay:(Delay_model.Constant 30.) ~topology:(Topology.fully_connected 4)
      ~rng:(rng ()) ()
  in
  let m = make_msg ~src:0 ~dst:1 in
  Network.assign_delay net m;
  Alcotest.(check (float 1e-9)) "constant delay" 30. m.Message.delay_ms

let test_network_self_messages_free () =
  let net =
    Network.create ~delay:(Delay_model.Constant 30.) ~topology:(Topology.fully_connected 4)
      ~rng:(rng ()) ()
  in
  let m = make_msg ~src:2 ~dst:2 in
  Network.assign_delay net m;
  Alcotest.(check (float 1e-9)) "self delivery immediate" 0. m.Message.delay_ms;
  Alcotest.(check int) "self delivery not counted" 0 (Network.stats net).Network.sent

let test_network_counters () =
  let net =
    Network.create ~delay:(Delay_model.Constant 1.) ~topology:(Topology.fully_connected 4)
      ~rng:(rng ()) ()
  in
  Network.assign_delay net (make_msg ~src:0 ~dst:1);
  Network.assign_delay net (make_msg ~src:1 ~dst:2);
  let stats = Network.stats net in
  Alcotest.(check int) "sent" 2 stats.Network.sent;
  Alcotest.(check int) "bytes" (2 * Message.default_size) stats.Network.bytes;
  Network.reset_stats net;
  Alcotest.(check int) "reset" 0 (Network.stats net).Network.sent

let test_network_zone_delay_additive () =
  (* Propagation = jitter + one-way zone delay. *)
  match Topology.of_zone_spec "geo3" ~n:4 with
  | Error e -> Alcotest.failf "geo3 rejected: %s" e
  | Ok topology ->
    let net = Network.create ~delay:(Delay_model.Constant 5.) ~topology ~rng:(rng ()) () in
    let m = make_msg ~src:0 ~dst:1 in
    Network.assign_delay net m;
    (* us-east -> eu-west: 80 ms RTT, so 40 ms one-way, plus 5 ms jitter. *)
    Alcotest.(check (float 1e-9)) "zone + jitter" 45. m.Message.delay_ms;
    let intra = make_msg ~src:0 ~dst:3 in
    Network.assign_delay net intra;
    Alcotest.(check (float 1e-9)) "intra-zone" (5. +. (Topology.intra_rtt /. 2.))
      intra.Message.delay_ms

let test_network_bandwidth_serialization () =
  (* 1 Mbps: a default-size (128 B) message serializes in 128*8/1000 = 1.024 ms. *)
  let net =
    Network.create ~bandwidth_mbps:1. ~delay:(Delay_model.Constant 10.)
      ~topology:(Topology.fully_connected 4) ~rng:(rng ()) ()
  in
  let m = make_msg ~src:0 ~dst:1 in
  Network.assign_delay net m;
  Alcotest.(check (float 1e-9)) "serialization added" (10. +. 1.024) m.Message.delay_ms;
  Alcotest.(check (float 1e-9)) "first message sees empty link" 0. (Network.last_queue_ms net)

let test_network_bandwidth_fifo_queue () =
  (* Two messages leaving the same source at t=0 share its egress link: the
     second waits for the first to finish serializing. *)
  let net =
    Network.create ~bandwidth_mbps:1. ~delay:(Delay_model.Constant 10.)
      ~topology:(Topology.fully_connected 4) ~rng:(rng ()) ()
  in
  let m1 = make_msg ~src:0 ~dst:1 in
  let m2 = make_msg ~src:0 ~dst:2 in
  let m3 = make_msg ~src:1 ~dst:2 in
  Network.assign_delay net m1;
  Network.assign_delay net m2;
  Network.assign_delay net m3;
  Alcotest.(check (float 1e-9)) "head of line" (10. +. 1.024) m1.Message.delay_ms;
  Alcotest.(check (float 1e-9)) "queued behind head" (10. +. 1.024 +. 1.024) m2.Message.delay_ms;
  Alcotest.(check (float 1e-9)) "queue wait recorded" 1.024 (Network.stats net).Network.queue_ms_total;
  Alcotest.(check int) "one message queued" 1 (Network.stats net).Network.queued;
  (* A different source has its own link. *)
  Alcotest.(check (float 1e-9)) "independent link" (10. +. 1.024) m3.Message.delay_ms

let test_network_bandwidth_link_drains () =
  (* After the link goes idle, a later message pays no queue wait. *)
  let net =
    Network.create ~bandwidth_mbps:1. ~delay:(Delay_model.Constant 0.)
      ~topology:(Topology.fully_connected 4) ~rng:(rng ()) ()
  in
  let early = make_msg ~src:0 ~dst:1 in
  Network.assign_delay net early;
  let late = Message.make ~id:2 ~src:0 ~dst:1 ~sent_at:(Time.of_ms 100.) (Message.Blob "x") in
  Network.assign_delay net late;
  Alcotest.(check (float 1e-9)) "no wait on idle link" 1.024 late.Message.delay_ms;
  Alcotest.(check int) "nothing queued" 0 (Network.stats net).Network.queued

let test_network_override_delay () =
  let net =
    Network.create ~delay:(Delay_model.Constant 10.) ~topology:(Topology.fully_connected 4)
      ~rng:(rng ()) ()
  in
  Network.override_delay net (Delay_model.Constant 99.);
  let m = make_msg ~src:0 ~dst:1 in
  Network.assign_delay net m;
  Alcotest.(check (float 1e-9)) "overridden model used" 99. m.Message.delay_ms

(* --- Loss_model --- *)

let test_loss_model_none () =
  Alcotest.(check bool) "none is lossless" true (Loss_model.is_none Loss_model.none);
  Alcotest.(check bool) "default make is lossless" true (Loss_model.is_none (Loss_model.make ()));
  Alcotest.(check string) "describe" "lossless" (Loss_model.describe Loss_model.none);
  (* The lossless model consumes no randomness: the RNG stream after a
     sample is exactly the stream before it (the disabled-path contract). *)
  let r1 = rng () and r2 = rng () in
  let st = Loss_model.state Loss_model.none in
  let v = Loss_model.sample st r1 ~src:0 ~dst:1 in
  Alcotest.(check bool) "delivers" true v.Loss_model.deliver;
  Alcotest.(check bool) "no dup" false v.Loss_model.duplicate;
  Alcotest.(check (float 0.)) "no reorder" 0. v.Loss_model.reorder_extra_ms;
  Alcotest.(check (float 0.)) "no draw consumed" (Rng.float r2 1.) (Rng.float r1 1.)

let test_loss_model_certain_drop () =
  let st = Loss_model.state (Loss_model.make ~drop:1. ()) in
  let r = rng () in
  for _ = 1 to 20 do
    let v = Loss_model.sample st r ~src:0 ~dst:1 in
    Alcotest.(check bool) "p=1 drops" false v.Loss_model.deliver
  done

let test_loss_model_rates () =
  (* Empirical frequencies over one link track the configured probabilities,
     and every reorder draw stays inside the window. *)
  let st = Loss_model.state (Loss_model.make ~drop:0.3 ~dup:0.2 ~reorder_ms:40. ()) in
  let r = rng () in
  let n = 10_000 in
  let drops = ref 0 and dups = ref 0 in
  for _ = 1 to n do
    let v = Loss_model.sample st r ~src:2 ~dst:3 in
    if not v.Loss_model.deliver then incr drops
    else begin
      if v.Loss_model.duplicate then incr dups;
      Alcotest.(check bool) "reorder inside window" true
        (v.Loss_model.reorder_extra_ms >= 0. && v.Loss_model.reorder_extra_ms < 40.)
    end
  done;
  let drop_rate = float_of_int !drops /. float_of_int n in
  let dup_rate = float_of_int !dups /. float_of_int (n - !drops) in
  Alcotest.(check bool) "drop rate ~0.3" true (abs_float (drop_rate -. 0.3) < 0.02);
  Alcotest.(check bool) "dup rate ~0.2" true (abs_float (dup_rate -. 0.2) < 0.02)

let test_loss_model_burst_chain () =
  (* With p_gb=1, p_bg=0, p_bad=1 the chain enters the bad state on the
     first message and drops everything after; with p_gb=0 the link never
     leaves the good state.  Chains are per-link. *)
  let st =
    Loss_model.state (Loss_model.make ~burst:{ Loss_model.p_gb = 1.; p_bg = 0.; p_bad = 1. } ())
  in
  let r = rng () in
  for _ = 1 to 10 do
    let v = Loss_model.sample st r ~src:0 ~dst:1 in
    Alcotest.(check bool) "bad state drops" false v.Loss_model.deliver
  done;
  let st2 =
    Loss_model.state (Loss_model.make ~burst:{ Loss_model.p_gb = 0.; p_bg = 0.; p_bad = 1. } ())
  in
  for _ = 1 to 10 do
    let v = Loss_model.sample st2 r ~src:0 ~dst:1 in
    Alcotest.(check bool) "good state delivers" true v.Loss_model.deliver
  done

let test_loss_model_validate () =
  Alcotest.check_raises "drop > 1 rejected"
    (Invalid_argument "loss (drop probability) must be a probability in [0, 1], got 1.5")
    (fun () -> Loss_model.validate (Loss_model.make ~drop:1.5 ()));
  Alcotest.check_raises "negative reorder rejected"
    (Invalid_argument "reorder window must be >= 0 ms, got -1") (fun () ->
      Loss_model.validate (Loss_model.make ~reorder_ms:(-1.) ()));
  let b = Loss_model.burst_of_string "0.01,0.2,0.8" in
  Alcotest.(check string) "burst roundtrip" "0.01,0.2,0.8" (Loss_model.burst_to_string b);
  Alcotest.check_raises "malformed burst"
    (Invalid_argument "burst_loss \"x\": expected \"p_gb,p_bg,p_bad\"") (fun () ->
      ignore (Loss_model.burst_of_string "x"))

(* --- Allocation budgets ---

   Minor words per call, averaged over 1,000 calls, on the per-recipient
   send path.  The generator's state is unboxed, the samplers build no
   closures, and a normal draw goes into the caller's cell from
   [Rng.truncated_normal_into] through [Delay_model.sample] and
   [Network.sample]: N(250,50) allocates nothing (2 words when the draw
   was returned as a boxed float). *)

let words_per_call f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    f ()
  done;
  (Gc.minor_words () -. before) /. 1_000.

let check_budget name budget f =
  let w = words_per_call f in
  if w > budget then Alcotest.failf "%s: %.1f minor words per call > budget %.0f" name w budget

let test_send_path_alloc_budgets () =
  let normal = Delay_model.normal ~mu:250. ~sigma:50. in
  let r = rng () in
  let cell = [| 0. |] in
  check_budget "Delay_model.sample (normal)" 0. (fun () -> Delay_model.sample normal r cell);
  let net = Network.create ~delay:normal ~topology:(Topology.fully_connected 4) ~rng:(rng ()) () in
  let m = make_msg ~src:0 ~dst:1 in
  check_budget "Network.sample" 0. (fun () -> Network.sample net m.Message.msg ~dst:1 cell)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    [
      ( "message",
        [
          Alcotest.test_case "make" `Quick test_message_make;
          Alcotest.test_case "arrival time" `Quick test_message_arrival;
          Alcotest.test_case "printer registry" `Quick test_message_printer_registry;
        ] );
      ( "delay_model",
        [
          Alcotest.test_case "constant" `Quick test_delay_constant;
          Alcotest.test_case "uniform bounds" `Quick test_delay_uniform_bounds;
          Alcotest.test_case "normal nonnegative" `Quick test_delay_normal_nonnegative;
          Alcotest.test_case "bounded clipping" `Quick test_delay_bounded;
          Alcotest.test_case "means" `Quick test_delay_mean;
          Alcotest.test_case "parse/describe" `Quick test_delay_describe_parse_roundtrip;
          Alcotest.test_case "lognormal" `Quick test_delay_lognormal;
          Alcotest.test_case "bounded truncated mean" `Quick test_delay_bounded_mean_truncated;
          qc prop_delay_cli_roundtrip;
          qc prop_delay_samples_nonnegative_finite;
        ] );
      ( "topology",
        [
          Alcotest.test_case "default" `Quick test_topology_default;
          Alcotest.test_case "validation" `Quick test_topology_validation;
          Alcotest.test_case "zones" `Quick test_topology_zones;
          Alcotest.test_case "zone specs" `Quick test_topology_zone_specs;
        ] );
      ( "network",
        [
          Alcotest.test_case "assigns sampled delay" `Quick test_network_assigns_delay;
          Alcotest.test_case "self messages free and uncounted" `Quick test_network_self_messages_free;
          Alcotest.test_case "counters" `Quick test_network_counters;
          Alcotest.test_case "zone delay additive" `Quick test_network_zone_delay_additive;
          Alcotest.test_case "bandwidth serialization" `Quick test_network_bandwidth_serialization;
          Alcotest.test_case "bandwidth fifo queue" `Quick test_network_bandwidth_fifo_queue;
          Alcotest.test_case "bandwidth link drains" `Quick test_network_bandwidth_link_drains;
          Alcotest.test_case "mid-run override" `Quick test_network_override_delay;
          Alcotest.test_case "send-path allocation" `Quick test_send_path_alloc_budgets;
        ] );
      ( "loss_model",
        [
          Alcotest.test_case "lossless consumes no rng" `Quick test_loss_model_none;
          Alcotest.test_case "certain drop" `Quick test_loss_model_certain_drop;
          Alcotest.test_case "empirical rates" `Quick test_loss_model_rates;
          Alcotest.test_case "burst chain states" `Quick test_loss_model_burst_chain;
          Alcotest.test_case "validation" `Quick test_loss_model_validate;
        ] );
    ]
