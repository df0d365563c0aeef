(* Tests for the workload subsystem: arrival processes, the bounded
   mempool, batching policy, and the driver's determinism guarantees
   (same point twice, jobs-independent sweeps, journal round-trips). *)

open Bftsim_sim
module Core = Bftsim_core
module Wl = Bftsim_workload

let rng () = Rng.create 42

(* --- Arrival --- *)

let test_arrival_roundtrip () =
  let cases =
    [
      Wl.Arrival.constant ~rate:100.;
      Wl.Arrival.poisson ~rate:0.5;
      Wl.Arrival.on_off ~rate:800. ~on_ms:100. ~off_ms:400.;
    ]
  in
  List.iter
    (fun a ->
      match Wl.Arrival.of_string (Wl.Arrival.to_cli_string a) with
      | Ok a' -> Alcotest.(check bool) (Wl.Arrival.describe a) true (a = a')
      | Error e -> Alcotest.failf "reparse %s failed: %s" (Wl.Arrival.to_cli_string a) e)
    cases;
  (match Wl.Arrival.of_string "poisson:-5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative rate accepted");
  match Wl.Arrival.of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense accepted"

let test_arrival_constant_gap () =
  let a = Wl.Arrival.constant ~rate:200. in
  Alcotest.(check (float 1e-9)) "gap = 1000/rate" 5. (Wl.Arrival.next_gap_ms a ~now_ms:0. (rng ()));
  Alcotest.(check (float 1e-9)) "rate" 200. (Wl.Arrival.mean_rate a)

let test_arrival_onoff_windows () =
  (* Walk the arrival stream; every arrival must land inside an on window. *)
  let on_ms = 100. and off_ms = 400. in
  let a = Wl.Arrival.on_off ~rate:500. ~on_ms ~off_ms in
  let r = rng () in
  let now = ref 0. in
  for _ = 1 to 2000 do
    let gap = Wl.Arrival.next_gap_ms a ~now_ms:!now r in
    if gap < 0. then Alcotest.failf "negative gap %f" gap;
    now := !now +. gap;
    let phase = Float.rem !now (on_ms +. off_ms) in
    if phase > on_ms +. 1e-9 then Alcotest.failf "arrival at %f lands in off window (phase %f)" !now phase
  done;
  (* Duty cycle scales the long-run rate. *)
  Alcotest.(check (float 1e-9)) "mean rate" 100. (Wl.Arrival.mean_rate a)

let test_arrival_with_rate () =
  let a = Wl.Arrival.on_off ~rate:500. ~on_ms:100. ~off_ms:400. in
  match Wl.Arrival.with_rate a 1000. with
  | Wl.Arrival.On_off { rate; on_ms; off_ms } ->
    Alcotest.(check (float 1e-9)) "rate swapped" 1000. rate;
    Alcotest.(check (float 1e-9)) "on kept" 100. on_ms;
    Alcotest.(check (float 1e-9)) "off kept" 400. off_ms
  | _ -> Alcotest.fail "shape changed"

(* --- Mempool --- *)

let req id = { Wl.Mempool.id; arrived_ms = float_of_int id; key = 0; client = -1 }

let test_mempool_fifo () =
  let p = Wl.Mempool.create ~capacity:10 in
  for i = 0 to 4 do
    Alcotest.(check bool) "accepted" true (Wl.Mempool.add p (req i))
  done;
  Alcotest.(check int) "length" 5 (Wl.Mempool.length p);
  let taken = Wl.Mempool.take p ~max:3 in
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2 ]
    (List.map (fun (r : Wl.Mempool.request) -> r.Wl.Mempool.id) taken);
  let rest = Wl.Mempool.take p ~max:100 in
  Alcotest.(check (list int)) "remainder in order" [ 3; 4 ]
    (List.map (fun (r : Wl.Mempool.request) -> r.Wl.Mempool.id) rest);
  Alcotest.(check int) "drained" 0 (Wl.Mempool.length p)

let test_mempool_bound () =
  let p = Wl.Mempool.create ~capacity:3 in
  for i = 0 to 4 do
    ignore (Wl.Mempool.add p (req i) : bool)
  done;
  Alcotest.(check int) "capped" 3 (Wl.Mempool.length p);
  Alcotest.(check int) "drops counted" 2 (Wl.Mempool.dropped p);
  Alcotest.(check int) "peak" 3 (Wl.Mempool.peak p);
  (* The bound rejects the newest requests, keeping the oldest. *)
  let taken = Wl.Mempool.take p ~max:3 in
  Alcotest.(check (list int)) "oldest kept" [ 0; 1; 2 ]
    (List.map (fun (r : Wl.Mempool.request) -> r.Wl.Mempool.id) taken)

let test_mempool_requeue_front () =
  let p = Wl.Mempool.create ~capacity:10 in
  for i = 0 to 5 do
    ignore (Wl.Mempool.add p (req i) : bool)
  done;
  let batch = Wl.Mempool.take p ~max:3 in
  (* 3, 4, 5 remain; re-queueing [0;1;2] must put them back in front. *)
  Wl.Mempool.requeue p batch;
  Alcotest.(check int) "requeued counted" 3 (Wl.Mempool.requeued p);
  Alcotest.(check (list int)) "front order restored" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun (r : Wl.Mempool.request) -> r.Wl.Mempool.id) (Wl.Mempool.take p ~max:10));
  (* Re-queue bypasses the capacity bound: already-admitted requests. *)
  let p2 = Wl.Mempool.create ~capacity:2 in
  ignore (Wl.Mempool.add p2 (req 0) : bool);
  ignore (Wl.Mempool.add p2 (req 1) : bool);
  let b = Wl.Mempool.take p2 ~max:2 in
  ignore (Wl.Mempool.add p2 (req 2) : bool);
  ignore (Wl.Mempool.add p2 (req 3) : bool);
  Wl.Mempool.requeue p2 b;
  Alcotest.(check int) "over capacity transiently" 4 (Wl.Mempool.length p2);
  Alcotest.(check int) "peak follows requeue" 4 (Wl.Mempool.peak p2)

(* QCheck: arbitrary interleavings of submit / cut / stale-requeue /
   commit never duplicate or lose a request id, and the peak high-water
   mark tracks the maximum observed pool depth.  Ops are drawn as small
   ints: 0 = submit, 1 = cut a batch (to in-flight), 2 = re-queue the
   oldest in-flight batch, 3 = commit the oldest in-flight batch. *)
let prop_requeue_conserves_ids =
  QCheck.Test.make ~count:300 ~name:"mempool requeue conserves ids"
    QCheck.(pair (int_range 1 32) (list_of_size Gen.(int_range 1 120) (int_range 0 3)))
    (fun (capacity, ops) ->
      let p = Wl.Mempool.create ~capacity in
      let next = ref 0 in
      let admitted = Hashtbl.create 64 in
      let in_flight = Queue.create () in
      let committed = Hashtbl.create 64 in
      let expected_peak = ref 0 in
      let observe_peak () = expected_peak := Stdlib.max !expected_peak (Wl.Mempool.length p) in
      List.iter
        (fun op ->
          (match op with
          | 0 ->
            let id = !next in
            incr next;
            if Wl.Mempool.add p (req id) then Hashtbl.replace admitted id ()
          | 1 -> (
            match Wl.Mempool.take p ~max:3 with [] -> () | b -> Queue.add b in_flight)
          | 2 -> if not (Queue.is_empty in_flight) then Wl.Mempool.requeue p (Queue.pop in_flight)
          | _ ->
            if not (Queue.is_empty in_flight) then
              List.iter
                (fun (r : Wl.Mempool.request) -> Hashtbl.replace committed r.Wl.Mempool.id ())
                (Queue.pop in_flight));
          observe_peak ())
        ops;
      let pool_ids = List.map (fun (r : Wl.Mempool.request) -> r.Wl.Mempool.id) (Wl.Mempool.to_list p) in
      let flight_ids =
        Queue.fold (fun acc b -> List.map (fun (r : Wl.Mempool.request) -> r.Wl.Mempool.id) b @ acc) [] in_flight
      in
      let committed_ids = Hashtbl.fold (fun id () acc -> id :: acc) committed [] in
      let all = pool_ids @ flight_ids @ committed_ids in
      let sorted = List.sort compare all in
      let admitted_ids = List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) admitted []) in
      (* Conservation: every admitted id is in exactly one place. *)
      sorted = admitted_ids
      && List.length (List.sort_uniq compare all) = List.length all
      && Wl.Mempool.peak p = !expected_peak)

(* QCheck: after every add, take, re-queue of a stale batch and rejection
   of an unbuilt request (the driver's path when the pool is full), the
   pool's length, peak, drop count and service order equal a list
   model's. *)
let prop_mempool_matches_list_model =
  QCheck.Test.make ~count:300 ~name:"mempool length, peak and order match a list model"
    QCheck.(
      pair (int_range 1 16) (list_of_size Gen.(int_range 1 150) (pair (int_range 0 3) (int_range 0 6))))
    (fun (capacity, ops) ->
      let p = Wl.Mempool.create ~capacity in
      let model = ref [] and peak = ref 0 and dropped = ref 0 and next = ref 0 in
      let stale = Queue.create () in
      let ids = List.map (fun (r : Wl.Mempool.request) -> r.Wl.Mempool.id) in
      List.for_all
        (fun (op, k) ->
          (match op with
          | 0 ->
            let id = !next in
            incr next;
            if List.length !model >= capacity then incr dropped else model := !model @ [ id ];
            ignore (Wl.Mempool.add p (req id) : bool)
          | 1 ->
            let taken = Wl.Mempool.take p ~max:k in
            model := List.filteri (fun i _ -> i >= k) !model;
            if taken <> [] then Queue.add taken stale
          | 2 ->
            if List.length !model >= capacity then begin
              incr dropped;
              Wl.Mempool.reject p
            end
          | _ ->
            if not (Queue.is_empty stale) then begin
              let batch = Queue.pop stale in
              model := ids batch @ !model;
              Wl.Mempool.requeue p batch
            end);
          peak := Stdlib.max !peak (List.length !model);
          Wl.Mempool.length p = List.length !model
          && ids (Wl.Mempool.to_list p) = !model
          && Wl.Mempool.peak p = !peak
          && Wl.Mempool.dropped p = !dropped
          && Wl.Mempool.full p = (List.length !model >= capacity))
        ops)

(* --- Keys --- *)

let test_keys_roundtrip () =
  let cases =
    [ Wl.Keys.Single; Wl.Keys.uniform ~space:64; Wl.Keys.zipf ~s:1.1 (); Wl.Keys.zipf ~s:0.9 ~space:32 () ]
  in
  List.iter
    (fun k ->
      match Wl.Keys.of_string (Wl.Keys.to_cli_string k) with
      | Ok k' -> Alcotest.(check bool) (Wl.Keys.describe k) true (k = k')
      | Error e -> Alcotest.failf "reparse %s failed: %s" (Wl.Keys.to_cli_string k) e)
    cases;
  (match Wl.Keys.of_string "zipf:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative exponent accepted");
  match Wl.Keys.of_string "uniform:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty key space accepted"

let test_keys_zipf_skew () =
  (* Single draws nothing from the RNG; zipf concentrates mass on low keys
     and is deterministic per seed. *)
  let r1 = rng () and r2 = rng () in
  Alcotest.(check int) "single is key 0" 0 (Wl.Keys.sample (Wl.Keys.sampler Wl.Keys.Single) r1);
  Alcotest.(check bool) "single consumes no randomness" true (Rng.bits64 r1 = Rng.bits64 r2);
  let sampler = Wl.Keys.sampler (Wl.Keys.zipf ~s:1.3 ~space:128 ()) in
  let draw r = Array.init 2000 (fun _ -> Wl.Keys.sample sampler r) in
  let a = draw (rng ()) and b = draw (rng ()) in
  Alcotest.(check bool) "deterministic per seed" true (a = b);
  let hot = Array.fold_left (fun acc k -> if k < 8 then acc + 1 else acc) 0 a in
  Alcotest.(check bool) "mass concentrates on hot keys" true (hot > 1000);
  let in_range = Array.for_all (fun k -> k >= 0 && k < 128) a in
  Alcotest.(check bool) "keys in range" true in_range

(* --- Batch --- *)

let test_batch_policy () =
  let p = Wl.Batch.make ~max_batch:128 ~max_wait_ms:25. in
  Alcotest.(check string) "cli" "128@25" (Wl.Batch.to_cli_string p);
  (match Wl.Batch.of_string "128@25" with
  | Ok p' -> Alcotest.(check bool) "roundtrip" true (p = p')
  | Error e -> Alcotest.fail e);
  (match Wl.Batch.of_string "64" with
  | Ok p' ->
    Alcotest.(check int) "bare size" 64 p'.Wl.Batch.max_batch;
    Alcotest.(check (float 1e-9)) "default wait" Wl.Batch.default.Wl.Batch.max_wait_ms
      p'.Wl.Batch.max_wait_ms
  | Error e -> Alcotest.fail e);
  (match Wl.Batch.of_string "0@10" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero batch accepted");
  Alcotest.(check int) "empty batch pays header" Wl.Batch.header_bytes (Wl.Batch.size_bytes ~count:0);
  Alcotest.(check int) "linear size"
    (Wl.Batch.header_bytes + (3 * Wl.Batch.request_bytes))
    (Wl.Batch.size_bytes ~count:3)

(* --- Driver --- *)

let load_config () =
  Core.Config.make ~n:4 ~lambda_ms:200. ~delay:(Bftsim_net.Delay_model.normal ~mu:20. ~sigma:5.)
    ~decisions_target:10 ~seed:7 "pbft"

let driver () =
  Wl.Driver.make
    ~arrival:(Wl.Arrival.poisson ~rate:1.)
    ~policy:(Wl.Batch.make ~max_batch:64 ~max_wait_ms:20.)
    ~mempool_capacity:512 ()

let test_driver_point_deterministic () =
  let config = load_config () in
  let p1, _ = Wl.Driver.run_point (driver ()) ~rate:400. config in
  let p2, _ = Wl.Driver.run_point (driver ()) ~rate:400. config in
  Alcotest.(check bool) "same point twice" true (p1 = p2);
  Alcotest.(check string) "liveness" "reached-target" p1.Wl.Driver.outcome;
  Alcotest.(check bool) "committed some requests" true (p1.Wl.Driver.committed > 0);
  Alcotest.(check bool) "latency measured" true (p1.Wl.Driver.latency <> None)

(* [run_point] builds no audit, and counts in-flight requests without a
   list: its point and registry are [run_point_audit]'s, on a point that
   ends with requests in flight and in the pool. *)
let test_driver_point_without_audit () =
  let config =
    { (load_config ()) with Core.Config.telemetry = { Core.Config.default_telemetry with metrics = true } }
  in
  let point, metrics = Wl.Driver.run_point (driver ()) ~rate:6400. config in
  let audited, audit, result = Wl.Driver.run_point_audit (driver ()) ~rate:6400. config in
  Alcotest.(check bool) "requests in flight at the end" true (point.Wl.Driver.in_flight > 0);
  Alcotest.(check bool) "requests pending at the end" true (point.Wl.Driver.pending > 0);
  Alcotest.(check bool) "same point" true (point = audited);
  Alcotest.(check int) "in-flight count is the audit's" (List.length audit.Wl.Driver.in_flight_ids)
    point.Wl.Driver.in_flight;
  Alcotest.(check bool) "same registry" true
    (Bftsim_obs.Metrics.equal (Option.get metrics) (Option.get result.Core.Controller.metrics))

let test_driver_sweep_jobs_identical () =
  let config = load_config () in
  let rates = [ 200.; 800. ] in
  let c1 = Wl.Driver.sweep ~jobs:1 (driver ()) config ~rates in
  let c2 = Wl.Driver.sweep ~jobs:2 (driver ()) config ~rates in
  Alcotest.(check bool) "points identical at any jobs" true
    (c1.Wl.Driver.points = c2.Wl.Driver.points)

(* A journaled sweep keeps every finished point even when a later one
   raises (rate 0 is rejected), and a resume picks those points up. *)
let test_driver_sweep_journal_keeps_finished () =
  let config = load_config () in
  let path = Filename.temp_file "bftsim-load" ".jsonl" in
  let fingerprint = "fp-load" in
  let j = Core.Journal.create ~fingerprint path in
  (match Wl.Driver.sweep ~jobs:1 ~journal:j (driver ()) config ~rates:[ 50.; 100.; 0. ] with
  | _ -> Alcotest.fail "rate 0 should raise"
  | exception _ -> ());
  Core.Journal.close j;
  match Core.Journal.resume ~fingerprint path with
  | Error e -> Alcotest.fail e
  | Ok (j, events) ->
    let notes = List.filter (function Core.Journal.Done _ -> true | _ -> false) events in
    Alcotest.(check int) "finished points journaled" 2 (List.length notes);
    let curve =
      Wl.Driver.sweep ~jobs:1 ~journal:j ~resumed:events (driver ()) config ~rates:[ 50.; 100. ]
    in
    Core.Journal.close j;
    Sys.remove path;
    Alcotest.(check int) "resumed points" 2 curve.Wl.Driver.resumed

(* Resume from a journal holding a strict subset of the points (the first
   and last of three), at another pool size: the curve and its merged
   registry equal the uninterrupted sweep's, and only the missing point
   runs. *)
let test_driver_sweep_resume_subset () =
  let config =
    {
      (load_config ()) with
      Core.Config.telemetry = { Core.Config.default_telemetry with Core.Config.metrics = true };
    }
  in
  let rates = [ 200.; 800.; 1600. ] in
  let render (c : Wl.Driver.curve) =
    ( Bftsim_obs.Json.to_string (Wl.Driver.curve_to_json c),
      Option.map (fun m -> Bftsim_obs.Json.to_string (Bftsim_obs.Metrics.to_json m)) c.Wl.Driver.metrics
    )
  in
  let path = Filename.temp_file "bftsim-load" ".jsonl" in
  let fingerprint = Wl.Driver.fingerprint (driver ()) config ~rates in
  let j = Core.Journal.create ~fingerprint path in
  let reference = Wl.Driver.sweep ~jobs:1 ~journal:j (driver ()) config ~rates in
  Core.Journal.close j;
  let events =
    match Core.Journal.load path with Ok (_, events) -> events | Error e -> Alcotest.fail e
  in
  let j = Core.Journal.create ~fingerprint path in
  List.iter
    (function
      | Core.Journal.Done { index; _ } as e when index <> 1 -> Core.Journal.append j e | _ -> ())
    events;
  Core.Journal.close j;
  match Core.Journal.resume ~fingerprint path with
  | Error e -> Alcotest.fail e
  | Ok (j, events) ->
    let curve = Wl.Driver.sweep ~jobs:2 ~journal:j ~resumed:events (driver ()) config ~rates in
    Core.Journal.close j;
    Sys.remove path;
    Alcotest.(check int) "two points resumed" 2 curve.Wl.Driver.resumed;
    Alcotest.(check bool) "curve and registry equal the uninterrupted sweep" true
      (render curve = render reference)

let test_driver_saturation () =
  (* Drive far past capacity: the pool must overflow and committed
     throughput must fall well short of the offered rate. *)
  let config = load_config () in
  let p, _ = Wl.Driver.run_point (driver ()) ~rate:50000. config in
  Alcotest.(check bool) "mempool overflowed" true (p.Wl.Driver.dropped > 0);
  Alcotest.(check bool) "throughput below offered" true (p.Wl.Driver.throughput < 25000.);
  Alcotest.(check bool) "batches full" true (p.Wl.Driver.occupancy_mean > 32.)

let test_driver_point_json_roundtrip () =
  let config = load_config () in
  let p, _ = Wl.Driver.run_point (driver ()) ~rate:400. config in
  match Wl.Driver.point_of_json (Wl.Driver.point_to_json p) with
  | Ok p' -> Alcotest.(check bool) "point json roundtrip" true (p = p')
  | Error e -> Alcotest.fail e

let test_driver_pipeline_commits () =
  (* Pipelined heights must preserve liveness and contiguous commits. *)
  let config = { (load_config ()) with Core.Config.pipeline = 4 } in
  let p, _ = Wl.Driver.run_point (driver ()) ~rate:400. config in
  Alcotest.(check string) "pipelined liveness" "reached-target" p.Wl.Driver.outcome;
  Alcotest.(check bool) "pipelined commits" true (p.Wl.Driver.committed > 0)

let test_driver_metrics_injected () =
  let config =
    {
      (load_config ()) with
      Core.Config.telemetry =
        { Core.Config.default_telemetry with Core.Config.metrics = true };
    }
  in
  let _, metrics = Wl.Driver.run_point (driver ()) ~rate:400. config in
  match metrics with
  | None -> Alcotest.fail "no registry with telemetry on"
  | Some reg ->
    let names = List.map fst (Bftsim_obs.Metrics.snapshot reg) in
    List.iter
      (fun name ->
        Alcotest.(check bool) name true (List.mem name names))
      [ "wl.submitted"; "wl.committed"; "wl.batch_occupancy"; "wl.request_latency_ms" ]

(* One small overdriven point, pinned: the caller-alarm counters, every
   wl.* cell and the traced timer:workload spans.  A client request's
   alarm must keep counting in timer.set and timer.fired and keep its
   span however the controller carries it; the pool drops most arrivals
   here, so the path that never builds a dropped request is covered. *)
let test_driver_alarm_counters_pinned () =
  let config =
    {
      (load_config ()) with
      Core.Config.telemetry =
        { Core.Config.metrics = true; tracing = true; trace_capacity = 1_000_000 };
    }
  in
  let driver =
    Wl.Driver.make ~arrival:(Wl.Arrival.poisson ~rate:1.)
      ~policy:(Wl.Batch.make ~max_batch:64 ~max_wait_ms:20.)
      ~mempool_capacity:64 ()
  in
  let _, _, result = Wl.Driver.run_point_audit driver ~rate:6400. config in
  let cells =
    List.filter_map
      (fun (name, v) ->
        let open Bftsim_obs.Metrics in
        if String.starts_with ~prefix:"timer." name || String.starts_with ~prefix:"wl." name then
          Some
            (match v with
            | Counter_v i -> Printf.sprintf "%s %d" name i
            | Gauge_v g -> Printf.sprintf "%s %g" name g
            | Histogram_v h -> Printf.sprintf "%s count=%d sum=%h" name h.s_count h.s_sum)
        else None)
      (Bftsim_obs.Metrics.snapshot (Option.get result.Core.Controller.metrics))
  in
  Alcotest.(check (list string)) "alarm and wl.* cells"
    [
      "timer.cancelled 16";
      "timer.fired 3772";
      "timer.set 3817";
      "wl.batch_occupancy count=11 sum=0x1.6p+9";
      "wl.committed 640";
      "wl.committed_per_s 1085.47";
      "wl.dropped 3067";
      "wl.empty_batches 0";
      "wl.in_flight 64";
      "wl.key_conflicts 0";
      "wl.mempool_peak 64";
      "wl.request_latency_ms count=640 sum=0x1.097ef517dcb2ep+16";
      "wl.requeued 0";
      "wl.submitted 3771";
    ]
    cells;
  let spans = Option.get result.Core.Controller.spans in
  let workload = ref 0 in
  Bftsim_obs.Tracer.iter spans (fun e ->
      if e.Bftsim_obs.Tracer.name = "timer:workload" then incr workload);
  Alcotest.(check int) "nothing shed" 0 (Bftsim_obs.Tracer.dropped spans);
  Alcotest.(check int) "timer:workload spans" 3772 !workload;
  Alcotest.(check int) "events" 4146 result.Core.Controller.events_processed

let test_workload_disabled_identical () =
  (* A run without the workload hook must be bit-identical to the
     pre-workload engine: same fingerprint fields, no stray events. *)
  let config = load_config () in
  let r1 = Core.Controller.run config in
  let r2 = Core.Controller.run config in
  Alcotest.(check bool) "plain runs deterministic" true
    (r1.Core.Controller.decisions = r2.Core.Controller.decisions
    && r1.Core.Controller.time_ms = r2.Core.Controller.time_ms
    && r1.Core.Controller.events_processed = r2.Core.Controller.events_processed)

(* --- Cross-protocol differential load suite --- *)

(* The paper's eight protocols (the golden set).  The single-shot
   value-agreement family (add-*, algorand, async-ba) never pulls batches —
   proposing a client batch would violate their validity condition — so
   under load they commit zero requests; the accounting invariants must
   hold for them all the same. *)
let eight = [ "add-v1"; "add-v2"; "add-v3"; "algorand"; "async-ba"; "pbft"; "hotstuff-ns"; "librabft" ]

let smr = [ "pbft"; "hotstuff-ns"; "librabft" ]

let diff_config ~pipeline protocol =
  let decisions_target = if List.mem protocol smr then 12 else 1 in
  Core.Config.make protocol ~n:4 ~lambda_ms:200. ~delay:(Bftsim_net.Delay_model.Constant 20.)
    ~decisions_target ~seed:7 ~pipeline

let diff_driver () =
  Wl.Driver.make
    ~arrival:(Wl.Arrival.constant ~rate:1.)
    ~policy:(Wl.Batch.make ~max_batch:32 ~max_wait_ms:10.)
    ~mempool_capacity:256 ()

(* Driver-side accounting vs the consensus logs: the committed-request set
   the driver observed must be permutation-equal to the requests contained
   in batch values decided by at least f+1 distinct nodes, and every
   submitted id must be in exactly one of committed / dropped / pending /
   in-flight. *)
let check_differential ~pipeline protocol () =
  let config = diff_config ~pipeline protocol in
  let point, audit, result = Wl.Driver.run_point_audit (diff_driver ()) ~rate:400. config in
  let f = (config.Core.Config.n - 1) / 3 in
  (* Accounting identity: no arrival unaccounted. *)
  Alcotest.(check int)
    (protocol ^ ": submitted = committed + dropped + pending + in_flight")
    point.Wl.Driver.submitted
    (point.Wl.Driver.committed + point.Wl.Driver.dropped + point.Wl.Driver.pending
   + point.Wl.Driver.in_flight);
  (* No id is both committed and still pending/in-flight (and in particular
     no dropped id can commit: drops never enter the pool). *)
  let committed_sorted = List.sort compare audit.Wl.Driver.committed_ids in
  Alcotest.(check bool) (protocol ^ ": no id committed twice") true
    (List.sort_uniq compare committed_sorted = committed_sorted);
  let module S = Set.Make (Int) in
  let cset = S.of_list committed_sorted in
  Alcotest.(check bool) (protocol ^ ": committed disjoint from pending") true
    (not (List.exists (fun id -> S.mem id cset) audit.Wl.Driver.pending_ids));
  Alcotest.(check bool) (protocol ^ ": committed disjoint from in-flight") true
    (not (List.exists (fun id -> S.mem id cset) audit.Wl.Driver.in_flight_ids));
  (* Permutation equality against the consensus logs. *)
  let decided_counts = Hashtbl.create 64 in
  List.iter
    (fun (_node, values) ->
      List.iter
        (fun v ->
          Hashtbl.replace decided_counts v (1 + Option.value ~default:0 (Hashtbl.find_opt decided_counts v)))
        (List.sort_uniq compare values))
    result.Core.Controller.decisions;
  let expected =
    List.concat_map
      (fun (value, ids) ->
        match Hashtbl.find_opt decided_counts value with
        | Some c when c >= f + 1 -> ids
        | Some _ | None -> [])
      audit.Wl.Driver.batch_log
  in
  Alcotest.(check (list int))
    (protocol ^ ": committed ids permutation-equal to quorum-decided batches")
    (List.sort compare expected) committed_sorted;
  (* The wired SMR protocols must actually move requests through. *)
  if List.mem protocol smr then
    Alcotest.(check bool) (protocol ^ ": nonzero goodput") true (point.Wl.Driver.committed > 0)

let test_differential_depth1 () = List.iter (fun p -> check_differential ~pipeline:1 p ()) eight

let test_differential_depth4 () = List.iter (fun p -> check_differential ~pipeline:4 p ()) eight

let test_chained_extensions_differential () =
  (* The chained/pipelined extension protocols go through the same audit. *)
  List.iter
    (fun p ->
      let config =
        Core.Config.make p ~n:4 ~lambda_ms:200. ~delay:(Bftsim_net.Delay_model.Constant 20.)
          ~decisions_target:12 ~seed:7 ~pipeline:4
      in
      let point, audit, _ = Wl.Driver.run_point_audit (diff_driver ()) ~rate:400. config in
      Alcotest.(check int) (p ^ ": accounting identity") point.Wl.Driver.submitted
        (point.Wl.Driver.committed + point.Wl.Driver.dropped + point.Wl.Driver.pending
       + point.Wl.Driver.in_flight);
      Alcotest.(check bool) (p ^ ": goodput") true (point.Wl.Driver.committed > 0);
      Alcotest.(check bool) (p ^ ": no duplicate commits") true
        (let s = List.sort compare audit.Wl.Driver.committed_ids in
         List.sort_uniq compare s = s))
    [ "tendermint"; "hotstuff-cogsworth"; "sync-hotstuff" ]

let test_chained_pipeline_speedup () =
  (* The tentpole claim: a chained protocol at depth 4 moves at least 2x
     the requests of depth 1 over the same heights at saturation. *)
  let run pipeline =
    let config =
      Core.Config.make "hotstuff-ns" ~n:4 ~lambda_ms:200.
        ~delay:(Bftsim_net.Delay_model.Constant 20.) ~decisions_target:20 ~seed:7 ~pipeline
    in
    let p, _ = Wl.Driver.run_point (diff_driver ()) ~rate:4000. config in
    p.Wl.Driver.throughput
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "depth-4 >= 2x depth-1 (%.1f vs %.1f req/s)" t4 t1)
    true (t4 >= 2. *. t1)

(* --- Re-queue accounting under churn --- *)

let test_requeue_churn_accounting () =
  (* A churny view-change schedule (chaos crash/recover on rotating
     leaders) with a batch wait longer than the base view duration: some
     leader continuations fire after their view moved on, and those batches
     must be re-queued and eventually committed, never lost.  The identity
     [submitted = committed + dropped + pending + in_flight] holding with
     [requeued > 0] is the "no arrival unaccounted" acceptance check. *)
  let chaos =
    [
      { Bftsim_attack.Fault_schedule.at_ms = 100.; action = Bftsim_attack.Fault_schedule.Crash 1 };
      { Bftsim_attack.Fault_schedule.at_ms = 2500.; action = Bftsim_attack.Fault_schedule.Recover 1 };
      { Bftsim_attack.Fault_schedule.at_ms = 2600.; action = Bftsim_attack.Fault_schedule.Crash 2 };
      { Bftsim_attack.Fault_schedule.at_ms = 5000.; action = Bftsim_attack.Fault_schedule.Recover 2 };
    ]
  in
  let config =
    Core.Config.make "hotstuff-ns" ~n:4 ~lambda_ms:100.
      ~delay:(Bftsim_net.Delay_model.Constant 10.) ~decisions_target:30 ~seed:11 ~chaos
      ~max_time_ms:60_000. ~pipeline:2
  in
  let driver =
    Wl.Driver.make
      ~arrival:(Wl.Arrival.constant ~rate:1.)
      ~policy:(Wl.Batch.make ~max_batch:512 ~max_wait_ms:400.)
      ~mempool_capacity:4096 ()
  in
  let point, audit, _ = Wl.Driver.run_point_audit driver ~rate:300. config in
  Alcotest.(check bool) "stale batches were re-queued" true (point.Wl.Driver.requeued > 0);
  Alcotest.(check bool) "progress despite churn" true (point.Wl.Driver.committed > 0);
  Alcotest.(check int) "every arrival accounted" point.Wl.Driver.submitted
    (point.Wl.Driver.committed + point.Wl.Driver.dropped + point.Wl.Driver.pending
   + point.Wl.Driver.in_flight);
  (* Re-queued requests are not lost: each re-queued id ends up committed,
     pending, or in flight — and never in two places. *)
  let module S = Set.Make (Int) in
  let c = S.of_list audit.Wl.Driver.committed_ids in
  let p = S.of_list audit.Wl.Driver.pending_ids in
  let fl = S.of_list audit.Wl.Driver.in_flight_ids in
  Alcotest.(check bool) "states disjoint" true
    (S.is_empty (S.inter c p) && S.is_empty (S.inter c fl) && S.is_empty (S.inter p fl));
  List.iter
    (fun (id, times) ->
      Alcotest.(check bool)
        (Printf.sprintf "requeued id %d (x%d) accounted" id times)
        true
        (S.mem id c || S.mem id p || S.mem id fl))
    audit.Wl.Driver.requeued_ids;
  (* wl.requeued + wl.dropped + wl.committed covers every *resolved*
     arrival: metrics view of the same identity. *)
  let requeue_events = List.fold_left (fun acc (_, n) -> acc + n) 0 audit.Wl.Driver.requeued_ids in
  Alcotest.(check int) "requeue count matches audit" point.Wl.Driver.requeued requeue_events

(* --- Closed loop + keys --- *)

let test_closed_loop_self_limits () =
  let config = load_config () in
  let driver =
    Wl.Driver.make
      ~policy:(Wl.Batch.make ~max_batch:64 ~max_wait_ms:20.)
      ~mempool_capacity:512
      ~clients:(Wl.Driver.Closed_loop { cap = 4 })
      ()
  in
  (* rate = population size in closed-loop mode. *)
  let p8, _ = Wl.Driver.run_point driver ~rate:8. config in
  let p32, _ = Wl.Driver.run_point driver ~rate:32. config in
  Alcotest.(check string) "closed loop reaches target" "reached-target" p8.Wl.Driver.outcome;
  (* Self-limiting: in-flight never exceeds population x cap, nothing is
     ever dropped, and more clients push more requests through. *)
  Alcotest.(check int) "closed loop never drops" 0 p8.Wl.Driver.dropped;
  Alcotest.(check bool) "peak bounded by population window" true
    (p8.Wl.Driver.mempool_peak <= 8 * 4);
  Alcotest.(check bool) "population scales throughput" true
    (p32.Wl.Driver.committed > p8.Wl.Driver.committed);
  let p8', _ = Wl.Driver.run_point driver ~rate:8. config in
  Alcotest.(check bool) "closed loop deterministic" true (p8 = p8')

let test_keyed_conflicts_counted () =
  let config = load_config () in
  let mk keys =
    Wl.Driver.make
      ~policy:(Wl.Batch.make ~max_batch:64 ~max_wait_ms:20.)
      ~mempool_capacity:512 ~keys ()
  in
  let hot, _ = Wl.Driver.run_point (mk (Wl.Keys.zipf ~s:1.5 ~space:16 ())) ~rate:800. config in
  let cold, _ = Wl.Driver.run_point (mk (Wl.Keys.uniform ~space:4096)) ~rate:800. config in
  let unkeyed, _ = Wl.Driver.run_point (mk Wl.Keys.Single) ~rate:800. config in
  Alcotest.(check int) "single mode counts no conflicts" 0 unkeyed.Wl.Driver.key_conflicts;
  Alcotest.(check bool) "hot zipf keys conflict more than a wide uniform space" true
    (hot.Wl.Driver.key_conflicts > cold.Wl.Driver.key_conflicts);
  (* Keyed runs keep the unkeyed arrival schedule: same submission count. *)
  Alcotest.(check int) "arrival schedule unperturbed by keying" unkeyed.Wl.Driver.submitted
    hot.Wl.Driver.submitted

let () =
  Alcotest.run "workload"
    [
      ( "arrival",
        [
          Alcotest.test_case "cli roundtrip" `Quick test_arrival_roundtrip;
          Alcotest.test_case "constant gap" `Quick test_arrival_constant_gap;
          Alcotest.test_case "on/off windows" `Quick test_arrival_onoff_windows;
          Alcotest.test_case "with_rate keeps shape" `Quick test_arrival_with_rate;
        ] );
      ( "mempool",
        [
          Alcotest.test_case "FIFO order" `Quick test_mempool_fifo;
          Alcotest.test_case "bound drops newest" `Quick test_mempool_bound;
          Alcotest.test_case "requeue front order" `Quick test_mempool_requeue_front;
          QCheck_alcotest.to_alcotest prop_requeue_conserves_ids;
          QCheck_alcotest.to_alcotest prop_mempool_matches_list_model;
        ] );
      ( "keys",
        [
          Alcotest.test_case "cli roundtrip" `Quick test_keys_roundtrip;
          Alcotest.test_case "zipf skew" `Quick test_keys_zipf_skew;
        ] );
      ( "batch", [ Alcotest.test_case "policy parse and size" `Quick test_batch_policy ] );
      ( "driver",
        [
          Alcotest.test_case "point deterministic" `Quick test_driver_point_deterministic;
          Alcotest.test_case "point without audit" `Quick test_driver_point_without_audit;
          Alcotest.test_case "sweep jobs-identical" `Quick test_driver_sweep_jobs_identical;
          Alcotest.test_case "sweep journal keeps finished points" `Quick
            test_driver_sweep_journal_keeps_finished;
          Alcotest.test_case "sweep resumes from a subset of points" `Quick
            test_driver_sweep_resume_subset;
          Alcotest.test_case "saturation under overload" `Quick test_driver_saturation;
          Alcotest.test_case "point json roundtrip" `Quick test_driver_point_json_roundtrip;
          Alcotest.test_case "pipelined liveness" `Quick test_driver_pipeline_commits;
          Alcotest.test_case "wl metrics injected" `Quick test_driver_metrics_injected;
          Alcotest.test_case "alarm counters pinned" `Quick test_driver_alarm_counters_pinned;
          Alcotest.test_case "disabled path deterministic" `Quick test_workload_disabled_identical;
          Alcotest.test_case "closed loop self-limits" `Quick test_closed_loop_self_limits;
          Alcotest.test_case "keyed conflicts counted" `Quick test_keyed_conflicts_counted;
        ] );
      ( "differential",
        [
          Alcotest.test_case "eight protocols, depth 1" `Quick test_differential_depth1;
          Alcotest.test_case "eight protocols, depth 4" `Quick test_differential_depth4;
          Alcotest.test_case "chained extensions, depth 4" `Quick test_chained_extensions_differential;
          Alcotest.test_case "chained pipeline speedup" `Quick test_chained_pipeline_speedup;
        ] );
      ( "churn",
        [ Alcotest.test_case "requeue accounting under view changes" `Quick test_requeue_churn_accounting ] );
    ]
