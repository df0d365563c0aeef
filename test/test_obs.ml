(* Tests for the lib/obs telemetry subsystem: the JSON codec, the metrics
   registry (bucket boundaries, quantiles, deterministic merge), the ring
   tracer, the exporters (Chrome output parsed back with the codec), and
   the end-to-end wiring: telemetry must not perturb simulation results,
   and merged registries must be identical at any domain-pool size. *)

module Obs = Bftsim_obs
module Core = Bftsim_core
module Net = Bftsim_net

(* --- Json --- *)

let parse s =
  match Obs.Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse failure: %s" e

let member name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" name

let number j =
  match Obs.Json.to_number j with Some f -> f | None -> Alcotest.fail "expected number"

let test_json_roundtrip () =
  let doc =
    Obs.Json.Assoc
      [
        ("name", Obs.Json.String "a \"quoted\"\nstring \x01 with \xe2\x9c\x93 unicode");
        ("int", Obs.Json.Int (-42));
        ("float", Obs.Json.Float 1.5);
        ("tiny", Obs.Json.Float 1e-9);
        ("null", Obs.Json.Null);
        ("flags", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Bool false ]);
        ("empty_obj", Obs.Json.Assoc []);
        ("empty_arr", Obs.Json.List []);
      ]
  in
  let reparsed = parse (Obs.Json.to_string doc) in
  Alcotest.(check bool) "roundtrip" true (reparsed = doc)

let test_json_parse_escapes () =
  (match parse {|"aA\n\t\"\\é😀"|} with
  | Obs.Json.String s -> Alcotest.(check string) "escapes" "aA\n\t\"\\\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected string");
  (match parse "[1, 2.5, -3e2, true, null]" with
  | Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.5; Obs.Json.Float -300.; Obs.Json.Bool true; Obs.Json.Null ]
    -> ()
  | _ -> Alcotest.fail "number forms");
  match Obs.Json.of_string "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

let test_json_float_fidelity () =
  let check_float f =
    match parse (Obs.Json.to_string (Obs.Json.Float f)) with
    | Obs.Json.Float g -> Alcotest.(check (float 0.)) (string_of_float f) f g
    | Obs.Json.Int i -> Alcotest.(check (float 0.)) (string_of_float f) f (float_of_int i)
    | _ -> Alcotest.fail "expected number"
  in
  List.iter check_float [ 0.1; 1. /. 3.; 1e300; -2.5e-7; 1234567.0 ];
  (* Non-finite floats are not representable in JSON: emitted as null. *)
  Alcotest.(check string) "nan" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan))

(* --- Metrics: histogram bucket boundaries --- *)

let test_histogram_buckets () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~buckets:[| 1.; 10.; 100. |] reg "h" in
  (* Bucket i holds v <= bounds.(i): 0.5 and 1.0 land in bucket 0 (<=1),
     5 in bucket 1 (<=10), 10 in bucket 1 (boundary is inclusive),
     50 in bucket 2 (<=100), 1000 overflows. *)
  List.iter (Obs.Metrics.observe_h h) [ 0.5; 1.0; 5.; 10.; 50.; 1000. ];
  match Obs.Metrics.snapshot reg with
  | [ ("h", Obs.Metrics.Histogram_v s) ] ->
    Alcotest.(check (array (float 0.))) "bounds" [| 1.; 10.; 100. |] s.Obs.Metrics.s_bounds;
    Alcotest.(check (array int)) "counts" [| 2; 2; 1; 1 |] s.Obs.Metrics.s_counts;
    Alcotest.(check int) "count" 6 s.Obs.Metrics.s_count;
    Alcotest.(check (float 1e-9)) "sum" 1066.5 s.Obs.Metrics.s_sum;
    Alcotest.(check (float 0.)) "min" 0.5 s.Obs.Metrics.s_min;
    Alcotest.(check (float 0.)) "max" 1000. s.Obs.Metrics.s_max
  | _ -> Alcotest.fail "expected one histogram"

let test_histogram_quantiles () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~buckets:[| 10.; 20.; 30. |] reg "h" in
  for v = 1 to 30 do
    Obs.Metrics.observe_h h (float_of_int v)
  done;
  match Obs.Metrics.snapshot reg with
  | [ ("h", Obs.Metrics.Histogram_v s) ] ->
    let q p = Obs.Metrics.quantile_of_snapshot s p in
    (* Uniform 1..30: the p50 estimate sits near 15, clamped within the
       observed range; p0/p100 hit the exact extremes. *)
    Alcotest.(check (float 0.)) "p0" 1. (q 0.);
    Alcotest.(check (float 0.)) "p100" 30. (q 100.);
    let p50 = q 50. in
    Alcotest.(check bool) "p50 in [10, 20]" true (p50 >= 10. && p50 <= 20.);
    let p95 = q 95. in
    Alcotest.(check bool) "p95 in [20, 30]" true (p95 >= 20. && p95 <= 30.);
    Alcotest.(check bool) "monotone" true (q 25. <= q 50. && q 50. <= q 75.)
  | _ -> Alcotest.fail "expected one histogram"

(* The cell and int entry points record what [observe_h] records, and
   allocate nothing: sum, min and max are slots of a float array. *)
let test_histogram_observe_unboxed () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~buckets:[| 1.; 10.; 100. |] reg "h" in
  let reference = Obs.Metrics.histogram ~buckets:[| 1.; 10.; 100. |] reg "r" in
  let cell = [| 0. |] in
  List.iter
    (fun v ->
      cell.(0) <- v;
      Obs.Metrics.observe_cell h cell;
      Obs.Metrics.observe_h reference v)
    [ 0.5; 1.0; 5.; 10.; 50.; 1000. ];
  List.iter
    (fun i ->
      Obs.Metrics.observe_int h i;
      Obs.Metrics.observe_h reference (float_of_int i))
    [ 0; 7; 64; 4096 ];
  (match Obs.Metrics.snapshot reg with
  | [ ("h", Obs.Metrics.Histogram_v a); ("r", Obs.Metrics.Histogram_v b) ] ->
    Alcotest.(check bool) "same histogram" true (a = b)
  | _ -> Alcotest.fail "expected two histograms");
  let words f =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to 1_000 do
      f ()
    done;
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.)) "observe_cell words" 0. (words (fun () -> Obs.Metrics.observe_cell h cell));
  Alcotest.(check (float 0.)) "observe_int words" 0. (words (fun () -> Obs.Metrics.observe_int h 300))

let test_histogram_validation () =
  let reg = Obs.Metrics.create () in
  (match Obs.Metrics.histogram ~buckets:[||] reg "bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty layout accepted");
  (match Obs.Metrics.histogram ~buckets:[| 5.; 5. |] reg "bad2" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing layout accepted");
  ignore (Obs.Metrics.counter reg "c");
  match Obs.Metrics.histogram reg "c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type clash accepted"

(* --- Metrics: merge --- *)

let test_merge_semantics () =
  let a = Obs.Metrics.create () in
  let b = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:3 a "c";
  Obs.Metrics.incr ~by:4 b "c";
  Obs.Metrics.incr b "only_b";
  Obs.Metrics.set_gauge a "g" 2.;
  Obs.Metrics.set_gauge b "g" 5.;
  Obs.Metrics.set_gauge a "g0" 0.;
  Obs.Metrics.observe ~buckets:[| 10.; 20. |] a "h" 5.;
  Obs.Metrics.observe ~buckets:[| 10.; 20. |] b "h" 15.;
  let m = Obs.Metrics.merge [ a; b ] in
  let find name = List.assoc name (Obs.Metrics.snapshot m) in
  (match find "c" with
  | Obs.Metrics.Counter_v 7 -> ()
  | _ -> Alcotest.fail "counters must sum");
  (match find "only_b" with
  | Obs.Metrics.Counter_v 1 -> ()
  | _ -> Alcotest.fail "missing-on-one-side counter");
  (match find "g" with
  | Obs.Metrics.Gauge_v 5. -> ()
  | _ -> Alcotest.fail "gauges must keep the max");
  (match find "g0" with
  | Obs.Metrics.Gauge_v 0. -> ()
  | _ -> Alcotest.fail "zero gauge must survive the merge");
  (match find "h" with
  | Obs.Metrics.Histogram_v s ->
    Alcotest.(check (array int)) "bucket-wise add" [| 1; 1; 0 |] s.Obs.Metrics.s_counts
  | _ -> Alcotest.fail "histogram expected");
  (* Mismatched layouts must be rejected, not silently mangled. *)
  let c = Obs.Metrics.create () in
  Obs.Metrics.observe ~buckets:[| 1.; 2. |] c "h" 1.;
  match Obs.Metrics.merge [ a; c ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "layout mismatch accepted"

(* qcheck: merging one registry per chunk gives the same result however the
   observations are chunked — the property that makes domain-pool merges
   deterministic (each run's registry is chunk-order independent). *)
let test_merge_chunking_qcheck =
  (* Observations are half-integers so per-chunk sums are exact and the
     grouping of float additions cannot matter. *)
  let gen = QCheck.(list (pair (int_bound 4) (map (fun i -> float_of_int i *. 0.5) (int_bound 200)))) in
  QCheck.Test.make ~name:"merge independent of chunking" ~count:100 gen (fun obs ->
      let record reg (k, v) =
        Obs.Metrics.incr reg (Printf.sprintf "c%d" k);
        Obs.Metrics.observe ~buckets:[| 10.; 50. |] reg "h" v
      in
      let whole = Obs.Metrics.create () in
      List.iter (record whole) obs;
      let rec chunk k = function
        | [] -> []
        | l ->
          let take = 1 + (k mod 3) in
          let rec split i = function
            | [] -> ([], [])
            | x :: tl when i < take ->
              let a, b = split (i + 1) tl in
              (x :: a, b)
            | l -> ([], l)
          in
          let head, rest = split 0 l in
          head :: chunk (k + 1) rest
      in
      let regs =
        List.map
          (fun part ->
            let r = Obs.Metrics.create () in
            List.iter (record r) part;
            r)
          (chunk 0 obs)
      in
      match regs with
      | [] -> true
      | _ -> Obs.Metrics.equal (Obs.Metrics.merge regs) whole)

(* --- Tracer ring buffer --- *)

let test_ring_overflow_keeps_newest () =
  let tr = Obs.Tracer.create ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Tracer.instant tr ~name:(string_of_int i) ~cat:"t" ~node:0 ~ts_us:(float_of_int i) ()
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Tracer.length tr);
  Alcotest.(check int) "recorded" 10 (Obs.Tracer.recorded tr);
  Alcotest.(check int) "dropped" 6 (Obs.Tracer.dropped tr);
  let names = List.map (fun e -> e.Obs.Tracer.name) (Obs.Tracer.entries tr) in
  Alcotest.(check (list string)) "newest kept, oldest first" [ "7"; "8"; "9"; "10" ] names;
  match Obs.Tracer.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted"

let test_tracer_entry_fields () =
  let tr = Obs.Tracer.create ~capacity:8 () in
  Obs.Tracer.span tr ~name:"s" ~cat:"net" ~node:3 ~ts_us:100. ~dur_us:50.
    ~args:[ ("k", Obs.Tracer.Int 1) ]
    ();
  match Obs.Tracer.entries tr with
  | [ e ] ->
    Alcotest.(check string) "name" "s" e.Obs.Tracer.name;
    Alcotest.(check int) "node" 3 e.Obs.Tracer.node;
    Alcotest.(check bool) "phase" true (e.Obs.Tracer.phase = Obs.Tracer.Complete);
    Alcotest.(check (float 0.)) "ts" 100. e.Obs.Tracer.ts_us;
    Alcotest.(check (float 0.)) "dur" 50. e.Obs.Tracer.dur_us;
    Alcotest.(check bool) "wall clock recorded" true (e.Obs.Tracer.wall_us >= 0.)
  | _ -> Alcotest.fail "expected one entry"

(* --- Exporter --- *)

let test_chrome_export_parses_back () =
  let tr = Obs.Tracer.create ~capacity:16 () in
  Obs.Tracer.span tr ~name:"msg \"x\"" ~cat:"net" ~node:1 ~ts_us:10. ~dur_us:5.
    ~args:[ ("src", Obs.Tracer.Int 0); ("w", Obs.Tracer.Float 1.25) ]
    ();
  Obs.Tracer.instant tr ~name:"decide" ~cat:"protocol" ~node:2 ~ts_us:20.
    ~args:[ ("value", Obs.Tracer.Str "v\n1") ]
    ();
  let doc = parse (Obs.Json.to_string (Obs.Exporter.chrome_json tr)) in
  let events =
    match Obs.Json.to_list (member "traceEvents" doc) with
    | Some l -> l
    | None -> Alcotest.fail "traceEvents is not an array"
  in
  Alcotest.(check int) "two events" 2 (List.length events);
  (match events with
  | [ span; instant ] ->
    Alcotest.(check (option string)) "ph X" (Some "X")
      (Obs.Json.to_string_opt (member "ph" span));
    Alcotest.(check (option string)) "name escaped+restored" (Some "msg \"x\"")
      (Obs.Json.to_string_opt (member "name" span));
    Alcotest.(check (float 0.)) "ts" 10. (number (member "ts" span));
    Alcotest.(check (float 0.)) "dur" 5. (number (member "dur" span));
    Alcotest.(check (float 0.)) "tid = node" 1. (number (member "tid" span));
    Alcotest.(check (option string)) "ph i" (Some "i")
      (Obs.Json.to_string_opt (member "ph" instant));
    let args = member "args" instant in
    Alcotest.(check (option string)) "string arg survives newline" (Some "v\n1")
      (Obs.Json.to_string_opt (member "value" args))
  | _ -> assert false);
  match member "otherData" doc with
  | Obs.Json.Assoc _ -> ()
  | _ -> Alcotest.fail "otherData missing"

let test_jsonl_export () =
  let tr = Obs.Tracer.create ~capacity:4 () in
  Obs.Tracer.instant tr ~name:"a" ~cat:"t" ~node:0 ~ts_us:1. ();
  Obs.Tracer.instant tr ~name:"b" ~cat:"t" ~node:1 ~ts_us:2. ();
  let path = Filename.temp_file "bftsim_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Exporter.write_file ~path ~format:Obs.Exporter.Jsonl tr;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per event" 2 (List.length lines);
      List.iter
        (fun line ->
          match parse line with
          | Obs.Json.Assoc _ -> ()
          | _ -> Alcotest.fail "line is not an object")
        lines)

(* --- End-to-end: controller + runner --- *)

let base_config ?(telemetry = Core.Config.default_telemetry) () =
  {
    (Core.Config.make "pbft" ~n:7 ~seed:5
       ~delay:(Net.Delay_model.normal ~mu:100. ~sigma:20.))
    with
    Core.Config.telemetry;
  }

let fingerprint (r : Core.Controller.result) =
  (r.time_ms, r.messages_sent, r.bytes_sent, r.events_processed, r.decisions, r.final_views)

let test_telemetry_does_not_perturb () =
  let plain = Core.Controller.run (base_config ()) in
  let full =
    Core.Controller.run
      (base_config
         ~telemetry:{ Core.Config.metrics = true; tracing = true; trace_capacity = 1024 }
         ())
  in
  Alcotest.(check bool) "same simulation" true (fingerprint plain = fingerprint full);
  Alcotest.(check bool) "plain run has no registry" true (plain.Core.Controller.metrics = None);
  Alcotest.(check bool) "plain run has no spans" true (plain.Core.Controller.spans = None);
  let reg = Option.get full.Core.Controller.metrics in
  let count name =
    match List.assoc_opt name (Obs.Metrics.snapshot reg) with
    | Some (Obs.Metrics.Counter_v c) -> c
    | _ -> Alcotest.failf "counter %s missing" name
  in
  Alcotest.(check int) "net.sent matches result" full.Core.Controller.messages_sent
    (count "net.sent");
  Alcotest.(check int) "net.bytes matches result" full.Core.Controller.bytes_sent
    (count "net.bytes");
  Alcotest.(check int) "sim.events matches result" full.Core.Controller.events_processed
    (count "sim.events");
  Alcotest.(check bool) "decisions counted" true (count "protocol.decisions" >= 7);
  let spans = Option.get full.Core.Controller.spans in
  Alcotest.(check bool) "trace non-empty" true (Obs.Tracer.length spans > 0);
  let cats =
    List.sort_uniq compare (List.map (fun e -> e.Obs.Tracer.cat) (Obs.Tracer.entries spans))
  in
  (* No "timer" here: a clean fast run can end with every timer still
     pending (spans are emitted at fire/cancel-consume time). *)
  List.iter
    (fun cat -> Alcotest.(check bool) (cat ^ " events present") true (List.mem cat cats))
    [ "net"; "sim"; "protocol" ]

let test_merged_metrics_jobs_independent () =
  let config =
    base_config
      ~telemetry:{ Core.Config.metrics = true; tracing = false; trace_capacity = 1024 }
      ()
  in
  let s1 = Core.Runner.run_many ~reps:6 ~jobs:1 config in
  let s4 = Core.Runner.run_many ~reps:6 ~jobs:4 config in
  let m1 = Option.get s1.Core.Runner.metrics in
  let m4 = Option.get s4.Core.Runner.metrics in
  Alcotest.(check bool) "merged registries identical at jobs 1 vs 4" true
    (Obs.Metrics.equal m1 m4);
  (* And the rendering — what the CI job diffs — is byte-identical too. *)
  Alcotest.(check string) "rendered registries identical"
    (Format.asprintf "%a" Obs.Metrics.pp m1)
    (Format.asprintf "%a" Obs.Metrics.pp m4)

(* Runs [f lines] with the bftsim log source at debug level; [lines]
   collects every reported line, newest first. *)
let with_debug_lines f =
  let lines = ref [] in
  let report _src _level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun s ->
            lines := s :: !lines;
            over ();
            k ())
          fmt)
  in
  let src = Bftsim_sim.Simlog.src in
  let reporter = Logs.reporter () and level = Logs.Src.level src in
  Logs.set_reporter { Logs.report };
  Logs.Src.set_level src (Some Logs.Debug);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.Src.set_level src level)
    (fun () -> f lines)

(* A traced run ends with one open timer span per pending alarm: every path
   that consumes an alarm without firing it (a retransmission whose frame
   was acked or abandoned, an alarm lost with a node that never restarts)
   closes its span as well.  The controller's debug line at run end reports
   both counts. *)
let test_timer_spans_match_pending_alarms () =
  let config =
    {
      (Core.Config.make "pbft" ~n:7 ~seed:42 ~delay:(Net.Delay_model.Constant 100.)) with
      Core.Config.loss = Net.Loss_model.make ~drop:0.05 ~dup:0.02 ~reorder_ms:50. ();
      reliable = true;
      retrans_base_ms = 250.;
      chaos =
        Result.get_ok
          (Bftsim_attack.Fault_schedule.of_string "crash:2@200;restart:2@700;crash:5@300");
      telemetry = { Core.Config.metrics = false; tracing = true; trace_capacity = 1024 };
    }
  in
  let lines =
    with_debug_lines (fun lines ->
        ignore (Core.Controller.run config : Core.Controller.result);
        !lines)
  in
  let counts line =
    match String.index_opt line ':' with
    | Some i when String.length line > i + 2 ->
      let rest = String.sub line (i + 2) (String.length line - i - 2) in
      Scanf.sscanf_opt rest "%d alarms pending, %d timer spans open" (fun a b -> (a, b))
    | _ -> None
  in
  match List.find_map counts lines with
  | None -> Alcotest.fail "no run-end debug line"
  | Some (pending, open_spans) ->
    Alcotest.(check bool) "alarms still pending at run end" true (pending > 0);
    Alcotest.(check int) "open timer spans" pending open_spans

let test_simlog_mirror () =
  let tr = Obs.Tracer.create ~capacity:16 () in
  let hooks =
    Bftsim_sim.Simlog.hooks
      ~now:(fun () -> Bftsim_sim.Time.zero)
      ~mirror:(fun ~level s ->
        let name = match level with Logs.Error -> "error" | _ -> "warning" in
        Obs.Tracer.instant tr ~name ~cat:"log" ~node:(-1) ~ts_us:0.
          ~args:[ ("msg", Obs.Tracer.Str s) ]
          ())
      ()
  in
  Bftsim_sim.Simlog.install hooks;
  Bftsim_sim.Simlog.warn "mirrored %d" 1;
  Bftsim_sim.Simlog.info "not mirrored";
  Bftsim_sim.Simlog.uninstall hooks;
  Bftsim_sim.Simlog.warn "after removal";
  let entries = Obs.Tracer.entries tr in
  Alcotest.(check int) "only warn+ mirrored, only while installed" 1 (List.length entries);
  match entries with
  | [ e ] ->
    Alcotest.(check string) "cat" "log" e.Obs.Tracer.cat;
    (match List.assoc "msg" e.Obs.Tracer.args with
    | Obs.Tracer.Str s -> Alcotest.(check string) "formatted" "mirrored 1" s
    | _ -> Alcotest.fail "msg arg")
  | _ -> assert false

(* Two runs stepped in turn on one domain: each logs with its own clock,
   whichever was created last.  The run-end debug line of each carries the
   clock of that run at [finish]. *)
let test_per_run_log_clocks () =
  let run_end lines t =
    lines := [];
    ignore (Core.Controller.finish t : Core.Controller.result);
    let clock =
      Format.asprintf "[%a]" Bftsim_sim.Time.pp
        (Bftsim_sim.Time.of_ms (Core.Controller.now_ms t))
    in
    let needle = "] run ended at" in
    let k = String.length needle in
    let mentions l =
      let rec from i = i + k <= String.length l && (String.sub l i k = needle || from (i + 1)) in
      from 0
    in
    match List.find_opt mentions !lines with
    | Some line -> (clock, String.sub line 0 (String.index line ']' + 1))
    | None -> Alcotest.fail "no run-end debug line"
  in
  let ends =
    with_debug_lines (fun lines ->
        let a = Core.Controller.create (Core.Config.make "pbft" ~n:4 ~seed:1) in
        let b = Core.Controller.create (Core.Config.make "pbft" ~n:4 ~seed:2) in
        let rec alternate live_a live_b =
          if live_a || live_b then begin
            let live_a = live_a && Core.Controller.step a in
            alternate live_a (live_b && Core.Controller.step b)
          end
        in
        alternate true true;
        [ run_end lines a; run_end lines b ])
  in
  (match ends with
  | [ (clock_a, _); (clock_b, _) ] ->
    Alcotest.(check bool) "the runs end at different times" true (clock_a <> clock_b)
  | _ -> assert false);
  List.iter (fun (clock, prefix) -> Alcotest.(check string) "own clock" clock prefix) ends

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes and numbers" `Quick test_json_parse_escapes;
          Alcotest.test_case "float fidelity" `Quick test_json_float_fidelity;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
          Alcotest.test_case "histogram observes unboxed" `Quick test_histogram_observe_unboxed;
          Alcotest.test_case "merge semantics" `Quick test_merge_semantics;
          QCheck_alcotest.to_alcotest test_merge_chunking_qcheck;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring overflow keeps newest" `Quick test_ring_overflow_keeps_newest;
          Alcotest.test_case "entry fields" `Quick test_tracer_entry_fields;
        ] );
      ( "exporter",
        [
          Alcotest.test_case "chrome JSON parses back" `Quick test_chrome_export_parses_back;
          Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_export;
        ] );
      ( "integration",
        [
          Alcotest.test_case "telemetry does not perturb results" `Quick
            test_telemetry_does_not_perturb;
          Alcotest.test_case "merged metrics jobs-independent" `Quick
            test_merged_metrics_jobs_independent;
          Alcotest.test_case "simlog mirror" `Quick test_simlog_mirror;
          Alcotest.test_case "per-run log clocks" `Quick test_per_run_log_clocks;
          Alcotest.test_case "timer spans match pending alarms" `Quick
            test_timer_spans_match_pending_alarms;
        ] );
    ]
