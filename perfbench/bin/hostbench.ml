(* Host-cost benchmark: one workload per process.

     hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
               [--spawn-time <unix epoch s>]

     hostbench --reference

   Untraced (--trace 0): set up three times (registry, configs, inputs and
   one warm-up pass each), then run timed passes back to back for
   [seconds], one domain, one client; every pass is followed by the
   host-speed reference ([--reference], see [Calibrate]) and rescaled by
   it.  Traced (--trace 1): alternate
   untraced and traced passes for [seconds], then the reduced-n traced
   pass, a two-domain pass, the tracing probe and the component kernels.
   Every simulation's output is checked; the last line of stdout is the
   JSON result. *)

open Perfbench
module Core = Bftsim_core
module W = Workloads

let init_time = Unix.gettimeofday ()

let usage () =
  prerr_endline
    "usage: hostbench --workload <fig2-scale|paper-sweep|load-geo5|chaos-recovery> --seed <int> \
     --seconds <int> --trace <0|1> [--spawn-time <epoch s>]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let spawn = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: "0" :: rest -> trace := Some false; go rest
    | "--trace" :: "1" :: rest -> trace := Some true; go rest
    | "--spawn-time" :: v :: rest -> spawn := float_of_string_opt v; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when List.mem w W.names && secs > 0. ->
    (w, s, secs, t, Option.value !spawn ~default:init_time)
  | _ -> usage ()

let median = Kernels.median

(* ---- operation tally and output check ---- *)

let attempted = ref 0
let failed = ref 0
let problems : (string * string) list ref = ref []
let failures : (string * string) list ref = ref []
let problem label what = problems := (label, what) :: !problems

(* Every pass reruns the same simulations, so an operation is counted once,
   the first time it runs, whatever the pass count; each rerun is still
   checked and must repeat its first run exactly. *)
let seen : (string, W.op) Hashtbl.t = Hashtbl.create 64

let tally raws =
  let ops = List.map W.check raws in
  List.iter
    (fun (op : W.op) ->
      List.iter (problem op.W.label) op.W.problems;
      match Hashtbl.find_opt seen op.W.label with
      | Some first ->
        if first.W.fingerprint <> op.W.fingerprint || first.W.failed <> op.W.failed then
          problem op.W.label "a rerun gave a different result"
      | None ->
        Hashtbl.add seen op.W.label op;
        incr attempted;
        if op.W.failed then begin
          incr failed;
          failures := (op.W.label, op.W.outcome) :: !failures
        end)
    ops;
  ops

(* The wrapper must be invisible: same runs, same fingerprints. *)
let compare_fingerprints (plain : W.op list) (traced : W.op list) =
  if List.length plain <> List.length traced then
    problem "traced pass" "traced and untraced passes ran different operations"
  else
    List.iter2
      (fun (a : W.op) (b : W.op) ->
        if a.W.fingerprint <> b.W.fingerprint then
          problem a.W.label "traced run changed the result fingerprint")
      plain traced

(* ---- passes ---- *)

open Measure

let set_up name ~seed =
  Traced.register_all ();
  let w = W.make name ~seed in
  (w, W.pass w)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* The host-speed reference runs in a child process (this executable with
   [--reference]), which prints the kernel's seconds. *)
let reference_s () =
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "--reference" |] in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt line) with
  | Unix.WEXITED 0, Some s when s > 0. -> s
  | _ -> failwith "host-speed reference process failed"

(* ---- reporting ---- *)

let metrics : (string * float * string) list ref = ref []

let metric name unit value =
  if not (Float.is_finite value) then problem name "metric is not a finite number";
  metrics := (name, value, unit) :: !metrics

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result () =
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "  %-42s %16.6g %s\n" n v u) ms;
  List.iter (fun (label, outcome) -> Printf.printf "FAILED %s: %s\n" label outcome) (List.rev !failures);
  List.iter (fun (label, what) -> Printf.printf "PROBLEM %s: %s\n" label what) (List.rev !problems);
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!problems = [] && !attempted > 0)
    !attempted !failed body

let print_outputs w raws =
  List.iter (fun (k, v) -> Printf.printf "  %-42s %16.6g (simulated, ungated)\n" k v) (W.outputs w raws)

(* ---- untraced run: the end-to-end metrics ---- *)

let untraced name ~seed ~seconds ~spawn =
  let setups =
    List.init 3 (fun i ->
        let t0 = if i = 0 then spawn else (Gc.compact (); Unix.gettimeofday ()) in
        let w, warm = set_up name ~seed in
        let dt = Unix.gettimeofday () -. t0 in
        ignore (tally warm : W.op list);
        (w, dt))
  in
  (* Peak memory of three complete passes in a fresh process.  Later passes
     repeat the same work; what they add is allocator creep that differs
     between runs of one seed (one fig2-scale seed read 202 MB here in one
     run and 216 MB in the next), not memory the simulation needs. *)
  let peak_mb = peak_rss_mb () in
  let w = fst (List.hd setups) in
  let passes = ref [] in
  let start = now_s () in
  let first = ref [] in
  while List.length !passes < 3 || now_s () -. start < seconds do
    let p = timed_pass w in
    ignore (tally p.raws : W.op list);
    (* Keep only the first pass's results: retaining every pass would
       make peak memory grow with the pass count. *)
    if !first = [] then first := p.raws;
    let p = { p with raws = [] } in
    passes := (p, reference_s ()) :: !passes
  done;
  let passes = List.rev !passes in
  let events = List.fold_left (fun a (p, _) -> a + p.events) 0 passes in
  let words = List.fold_left (fun a ((p : pass), _) -> a +. p.words) 0. passes in
  let raw = List.map (fun (p, _) -> p.secs) passes and refs = List.map snd passes in
  Printf.printf
    "workload %s seed %d: %d timed passes of %d events, %d operations attempted, %d failed\n" name
    seed (List.length passes) (events / List.length passes) !attempted !failed;
  List.iter (fun i -> Printf.printf "  input %s\n" i) w.W.inputs;
  let show xs = String.concat " " (List.map (Printf.sprintf "%.4f") xs) in
  Printf.printf "  pass s (wall): %s\n  reference s:   %s\n" (show raw) (show refs);
  Printf.printf "  pass s (wall) median %.4f, reference median %.4f (nominal %.2f)\n" (median raw)
    (median refs) Calibrate.nominal_s;
  print_outputs w !first;
  metric "setup_s" "s" (median (List.map snd setups));
  metric "pass_s.p50" "s"
    (median (List.map (fun (p, reference) -> Calibrate.rescale ~reference p.secs) passes));
  metric "minor_words_per_event" "words" (words /. float_of_int (max events 1));
  metric "peak_rss_mb" "MB" peak_mb

(* ---- traced run: the per-layer metrics ---- *)

let print_layers title (ts : traced list) =
  let loop = event_loop ts in
  Printf.printf "%s: traced pass %.4f s, %.0f events\n" title
    (median (List.map (fun t -> t.pass.secs) ts))
    loop.loop_events;
  Printf.printf "  %-28s %12s %12s %10s %12s %12s\n" "layer" "calls" "units" "self_s" "ns/unit"
    "words/unit";
  Array.iteri
    (fun i l ->
      Printf.printf "  %-28s %12.0f %12.0f %10.4f %12.1f %12.1f\n" Span.names.(i) l.calls l.units
        l.self_s (per (l.self_s *. 1e9) l.units) (per l.words l.units))
    (layers ts);
  Printf.printf "  %-28s %12.0f %12s %10.4f %12.1f %12.1f\n" "core.event_loop (residual)"
    loop.loop_events "" loop.loop_s
    (per (loop.loop_s *. 1e9) loop.loop_events)
    (per loop.loop_words loop.loop_events)

let traced name ~seed ~seconds =
  let w, warm = set_up name ~seed in
  ignore (tally warm : W.op list);
  let plain = ref [] and traced = ref [] and first = ref [] in
  let start = now_s () in
  while List.length !traced < 2 || now_s () -. start < seconds do
    let u = timed_pass w in
    let t = traced_pass w in
    compare_fingerprints (tally u.raws) (tally t.pass.raws);
    if !first = [] then first := t.pass.raws;
    plain := { u with raws = [] } :: !plain;
    traced := { t with pass = { t.pass with raws = [] } } :: !traced
  done;
  let ts = List.rev !traced in
  Printf.printf "workload %s seed %d: %d untraced + %d traced passes\n" name seed
    (List.length !plain) (List.length ts);
  print_outputs w !first;
  print_layers (Printf.sprintf "%s n=%d" name w.W.shape.W.n) ts;
  let ls = layers ts and loop = event_loop ts in
  let traced_s = median (List.map (fun t -> t.pass.secs) ts) in
  let plain_s = median (List.map (fun p -> p.secs) !plain) in
  let h = ls.(Span.handler) and snd = ls.(Span.send) in
  metric "protocols.handler.calls" "count" h.calls;
  metric "protocols.handler.self_s" "s" h.self_s;
  metric "protocols.handler.ns_per_call" "ns" (per (h.self_s *. 1e9) h.calls);
  metric "protocols.handler.words_per_call" "words" (per h.words h.calls);
  metric "core.send_path.recipients" "count" snd.units;
  metric "core.send_path.ns_per_recipient" "ns" (per (snd.self_s *. 1e9) snd.units);
  metric "core.send_path.words_per_recipient" "words" (per snd.words snd.units);
  List.iter
    (fun (i, prefix) ->
      let l = ls.(i) in
      metric (prefix ^ ".calls") "count" l.calls;
      metric (prefix ^ ".self_pct") "%" (100. *. l.self_s /. traced_s);
      metric (prefix ^ ".words_per_call") "words" (per l.words l.calls))
    [
      (Span.timer, "core.timer");
      (Span.decide, "core.decide");
      (Span.request_proposal, "workload.request_proposal");
      (Span.persist, "core.wal.persist");
    ];
  metric "core.event_loop.events" "count" loop.loop_events;
  metric "core.event_loop.ns_per_event" "ns" (per (loop.loop_s *. 1e9) loop.loop_events);
  metric "core.event_loop.words_per_event" "words" (per loop.loop_words loop.loop_events);
  (* The same pass at reduced n names the layer whose cost grows with n. *)
  let small = W.make ~small:true name ~seed in
  let su = timed_pass small in
  let st = traced_pass small in
  compare_fingerprints (tally su.raws) (tally st.pass.raws);
  print_layers (Printf.sprintf "%s n=%d" name small.W.shape.W.n) [ st ];
  let sl = layers [ st ] and sloop = event_loop [ st ] in
  let sh = sl.(Span.handler) and ss = sl.(Span.send) in
  metric "scale.small.handler_ns_per_call" "ns" (per (sh.self_s *. 1e9) sh.calls);
  metric "scale.small.send_ns_per_recipient" "ns" (per (ss.self_s *. 1e9) ss.units);
  metric "scale.small.send_words_per_recipient" "words" (per ss.words ss.units);
  metric "scale.small.event_loop_ns_per_event" "ns" (per (sloop.loop_s *. 1e9) sloop.loop_events);
  (* Component kernels at this workload's shapes. *)
  let sh = w.W.shape in
  let k = Kernels.event_queue ~depth:sh.W.queue_depth ~seed in
  metric "sim.event_queue.push_pop_ns" "ns" k.Kernels.ns;
  metric "sim.event_queue.words_per_op" "words" k.Kernels.words;
  metric "net.assign_delay_ns" "ns"
    (Kernels.assign_delay ~n:sh.W.n ~topology:sh.W.topology ?bandwidth_mbps:sh.W.bandwidth_mbps
       ~delay:sh.W.delay ~seed ())
      .Kernels.ns;
  metric "net.loss_sample_ns" "ns" (Kernels.loss_sample ~n:sh.W.n ~loss:sh.W.loss ~seed).Kernels.ns;
  let sha = Kernels.sha256_64b () in
  metric "crypto.sha256_64B_ns" "ns" sha.Kernels.ns;
  metric "crypto.sha256_64B_words" "words" sha.Kernels.words;
  let vrf = Kernels.vrf_verify ~seed in
  metric "crypto.vrf_verify_ns" "ns" vrf.Kernels.ns;
  metric "crypto.vrf_verify_words" "words" vrf.Kernels.words;
  metric "crypto.sig_verify_ns" "ns" (Kernels.sig_verify ~seed).Kernels.ns;
  metric "workload.mempool_ns" "ns" (Kernels.mempool ~max_batch:sh.W.max_batch).Kernels.ns;
  metric "workload.arrival_gap_ns" "ns" (Kernels.arrival_gap ~rate:sh.W.arrival_rate ~seed).Kernels.ns;
  metric "obs.metrics_observe_ns" "ns" (Kernels.metrics_observe ~seed).Kernels.ns;
  (* Telemetry tracing on vs off, on this workload's probe item. *)
  let probe edit =
    let t0 = now_s () in
    ignore (tally (w.W.probe.W.run edit) : W.op list);
    now_s () -. t0
  in
  let off = List.init 3 (fun _ -> probe Fun.id) and on = List.init 3 (fun _ -> probe W.tracing_edit) in
  metric "obs.tracing_overhead_pct" "%" (100. *. ((median on /. median off) -. 1.));
  (match List.find_map W.result_of !first with
  | Some r -> metric "runner.digest_ns" "ns" (Kernels.digest r).Kernels.ns
  | None -> problem name "no completed simulation to digest");
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  let par = timed_pass ~jobs w in
  ignore (tally par.raws : W.op list);
  metric "runner.parallel_speedup" "x" (plain_s /. par.secs);
  metric "trace.wrapper_overhead_pct" "%" (100. *. ((traced_s /. plain_s) -. 1.));
  metric "trace.untraced_passes" "count" (float_of_int (List.length !plain));
  metric "trace.traced_passes" "count" (float_of_int (List.length ts))

let () =
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--reference" ] then begin
    Printf.printf "%.9f\n%!" (Calibrate.reference_s ());
    exit 0
  end;
  let name, seed, seconds, trace, spawn = parse_args () in
  Core.Parallel.tune_gc ();
  match if trace then traced name ~seed ~seconds else untraced name ~seed ~seconds ~spawn with
  | () -> print_result ()
  | exception e ->
    Printf.eprintf "hostbench: %s\n%!" (Printexc.to_string e);
    exit 1
