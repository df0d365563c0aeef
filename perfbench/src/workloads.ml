(* The four benchmark workloads.  Each is a list of items — the unit a
   user launches (one simulation, one replication sweep, one load point,
   one clean/restart pair) — built from the workload seed.  A pass runs
   every item once; the output check runs after the pass, untimed. *)

open Bftsim_core
module Net = Bftsim_net
module Attack = Bftsim_attack
module Sim = Bftsim_sim
module Wl = Bftsim_workload
module Conf = Bftsim_conformance
module Oracle = Conf.Oracle
module Schedule = Attack.Fault_schedule

let names = [ "fig2-scale"; "paper-sweep"; "load-geo5"; "chaos-recovery" ]

type raw =
  | Sim of { label : string; result : Controller.result }
  | Point of {
      label : string;
      point : Wl.Driver.point;
      audit : Wl.Driver.audit;
      result : Controller.result;
    }
  | Crashed of { label : string; error : string }

(* [run edit] runs the item with [edit] applied to every config: the
   identity for the untimed-untraced pass, a protocol rename for the traced
   pass, a telemetry switch for the tracing probe. *)
type item = { label : string; run : (Config.t -> Config.t) -> raw list }

(* Where the component kernels are evaluated for this workload. *)
type shape = {
  n : int;
  queue_depth : int;
  delay : Net.Delay_model.t;
  topology : Net.Topology.t;
  bandwidth_mbps : float option;
  loss : Net.Loss_model.t;
  max_batch : int;
  arrival_rate : float;
}

let shape ?bandwidth_mbps ?(loss = Net.Loss_model.none) ?(max_batch = 256) ~n ~delay topology =
  { n; queue_depth = n * n; delay; topology; bandwidth_mbps; loss; max_batch; arrival_rate = 4000. }

type t = {
  name : string;
  inputs : string list;  (** Canonical rendering of the generated inputs. *)
  items : item list;
  probe : item;  (** Representative item for the tracing-overhead probe. *)
  shape : shape;
}

let label_of = function Sim { label; _ } | Point { label; _ } | Crashed { label; _ } -> label

let result_of = function
  | Sim { result; _ } | Point { result; _ } -> Some result
  | Crashed _ -> None

let events_of raw =
  match result_of raw with Some r -> r.Controller.events_processed | None -> 0

let guard label f = try f () with e -> [ Crashed { label; error = Printexc.to_string e } ]

(* Results come back under the original protocol name whatever the run
   was configured with, so traced and untraced runs compare directly. *)
let sim label config edit =
  guard label (fun () -> [ Sim { label; result = Traced.restore (Controller.run (edit config)) } ])

let with_metrics c =
  { c with Config.telemetry = { Config.default_telemetry with Config.metrics = true } }

let paper_delay = Net.Delay_model.normal ~mu:250. ~sigma:50.

let seeds rng k = List.init k (fun _ -> 1 + Sim.Rng.int rng 1_000_000_000)

(* ---- fig2-scale: PBFT at n=512, lambda 1000, N(250,50), one decision ---- *)

let fig2 ~rng ~n =
  let configs =
    List.map (fun seed -> { (Experiments.fig2_config ~n) with Config.seed }) (seeds rng 2)
  in
  let item c =
    let label = Printf.sprintf "pbft n=%d seed=%d" n c.Config.seed in
    { label; run = sim label c }
  in
  let items = List.map item configs in
  ( items,
    List.map Config.describe configs,
    shape ~n ~delay:paper_delay (Net.Topology.fully_connected n) )

(* ---- paper-sweep: the eight paper protocols, three replications each ---- *)

let paper_reps = 3

let paper ~rng ~n =
  let config protocol seed =
    let inputs = if protocol = "async-ba" then Config.Random_binary else Config.Distinct in
    Config.make ~n ~seed ~inputs protocol
  in
  let configs = List.map2 config Experiments.all_protocols (seeds rng 8) in
  let item c =
    let label =
      Printf.sprintf "%s n=%d seed=%d reps=%d" c.Config.protocol n c.Config.seed paper_reps
    in
    let run edit =
      guard label (fun () ->
          let s = Runner.run_many ~reps:paper_reps ~jobs:1 (edit c) in
          List.mapi
            (fun i r ->
              Sim { label = Printf.sprintf "%s rep=%d" label i; result = Traced.restore r })
            s.Runner.results
          @ List.map
              (fun (f : Runner.failure) ->
                Crashed
                  { label = Printf.sprintf "%s rep=%d" label f.Runner.rep; error = f.Runner.detail })
              s.Runner.failures)
    in
    { label; run }
  in
  ( List.map item configs,
    List.map Config.describe configs,
    shape ~n ~delay:paper_delay (Net.Topology.fully_connected n) )

(* ---- load-geo5: open-loop Poisson clients at three offered rates ---- *)

let load_rates = [ 1000.; 4000.; 16000. ]
let load_batch = 256
let load_delay = Net.Delay_model.normal ~mu:20. ~sigma:5.

let load_driver =
  Wl.Driver.make
    ~arrival:(Wl.Arrival.poisson ~rate:1.)
    ~policy:(Wl.Batch.make ~max_batch:load_batch ~max_wait_ms:30.)
    ~mempool_capacity:4096 ()

let load ~rng ~n =
  let config protocol seed =
    with_metrics
      (Config.make protocol ~n ~seed ~lambda_ms:600.
         ~delay:load_delay ~zones:"geo5" ~bandwidth_mbps:100. ~pipeline:4 ~decisions_target:50)
  in
  let configs = List.map2 config [ "hotstuff-ns"; "pbft" ] (seeds rng 2) in
  let item c rate =
    let label =
      Printf.sprintf "%s n=%d seed=%d rate=%g" c.Config.protocol n c.Config.seed rate
    in
    let run edit =
      guard label (fun () ->
          let point, audit, result = Wl.Driver.run_point_audit load_driver ~rate (edit c) in
          [ Point { label; point; audit; result = Traced.restore result } ])
    in
    { label; run }
  in
  let topology =
    match Net.Topology.of_zone_spec "geo5" ~n with
    | Ok t -> t
    | Error e -> invalid_arg e
  in
  ( List.concat_map (fun c -> List.map (item c) load_rates) configs,
    List.map
      (fun c ->
        Printf.sprintf "%s rates=%s %s" (Config.describe c)
          (String.concat "," (List.map (Printf.sprintf "%g") load_rates))
          (Wl.Driver.describe load_driver))
      configs,
    shape ~n ~delay:load_delay ~bandwidth_mbps:100. ~max_batch:load_batch topology )

(* ---- chaos-recovery: lossy reliable links, with and without a restart ---- *)

let chaos_loss = Net.Loss_model.make ~drop:0.05 ~dup:0.01 ~reorder_ms:50. ()
let chaos_delay = Net.Delay_model.normal ~mu:50. ~sigma:10.

let chaos_base protocol ~n ~seed =
  with_metrics
    (Config.make protocol ~n ~seed ~lambda_ms:200. ~delay:chaos_delay ~decisions_target:30
       ~max_time_ms:120_000. ~loss:chaos_loss ~reliable:true)

(* The restart lands after the crashed replica's first decision: the seed
   picks the replica, how long after that decision it crashes, and how long
   it stays down; the decision instant comes from a recorded clean run. *)
let restart_plan rng ~n =
  let node = 1 + Sim.Rng.int rng (n - 1) in
  let after_ms = 200. +. float_of_int (Sim.Rng.int rng 600) in
  let down_ms = 1000. +. float_of_int (Sim.Rng.int rng 1000) in
  (node, after_ms, down_ms)

let first_decision_ms (c : Config.t) ~node =
  let r = Controller.run { c with Config.record_trace = true } in
  let trace = Option.get r.Controller.trace in
  match
    List.find_opt (fun e -> e.Trace.kind = Trace.Decide && e.Trace.node = node) (Trace.entries trace)
  with
  | Some e -> e.Trace.at_ms
  | None ->
    failwith
      (Printf.sprintf "chaos-recovery: node %d of %s seed %d never decides" node c.Config.protocol
         c.Config.seed)

let chaos ~rng ~n =
  let protocols = [ "pbft"; "hotstuff-ns"; "librabft" ] in
  let cells =
    List.concat_map
      (fun seed ->
        let plan = restart_plan rng ~n in
        List.map (fun p -> (p, seed, plan)) protocols)
      (seeds rng 2)
  in
  let item (protocol, seed, (node, after_ms, down_ms)) =
    let clean = chaos_base protocol ~n ~seed in
    let crash_ms = Float.round (first_decision_ms clean ~node +. after_ms) in
    let plan = Schedule.crash_and_restart ~nodes:[ node ] ~crash_ms ~restart_ms:(crash_ms +. down_ms) in
    let restart = { clean with Config.chaos = plan } in
    let label = Printf.sprintf "%s n=%d seed=%d" protocol n seed in
    let run edit =
      sim (label ^ " clean") clean edit @ sim (label ^ " " ^ Schedule.describe plan) restart edit
    in
    ({ label; run }, Config.describe restart)
  in
  let items = List.map item cells in
  ( List.map fst items,
    List.map snd items,
    shape ~n ~delay:chaos_delay ~loss:chaos_loss (Net.Topology.fully_connected n) )

(* [small] selects the reduced-n variant the traced run uses to tell which
   layer's per-event cost grows with n. *)
let make ?(small = false) name ~seed =
  let rng = Sim.Rng.create seed in
  let n, build, probe_index =
    match name with
    | "fig2-scale" -> ((if small then 128 else 512), fig2, 0)
    | "paper-sweep" -> ((if small then 16 else 64), paper, 5)
    | "load-geo5" -> ((if small then 4 else 16), load, 4)
    | "chaos-recovery" -> ((if small then 4 else 16), chaos, 0)
    | _ -> invalid_arg ("unknown workload " ^ name ^ " (known: " ^ String.concat ", " names ^ ")")
  in
  let items, inputs, shape = build ~rng ~n in
  { name; inputs; items; probe = List.nth items probe_index; shape }

let pass ?(jobs = 1) ?(edit = Fun.id) t =
  List.concat (Parallel.map ~jobs (fun it -> it.run edit) t.items)

let traced_edit c = { c with Config.protocol = Traced.traced_name c.Config.protocol }

let tracing_edit c =
  { c with Config.telemetry = { c.Config.telemetry with Config.tracing = true } }

(* ---- output check ---- *)

(* Known program defects stay visible as failed operations, not as
   incorrect output; each excuses only the verdicts it explains, so any
   other verdict still fails the output check.

   - late delivery: a crash drops the messages that would arrive while the
     replica is down, but the loss model lengthens a delivered message's
     delay (reordering, and [lambda/2] more for a duplicate) after that
     check; a message can reach the crashed replica up to [late_ms] after
     the crash, and the replica may decide while down.
   - chained restart: a chained-family replica that crashes after deciding
     never decides again after its restart; the run times out, and the
     recovery oracle may add that the replica never rejoined.  A
     conflicting re-commit is not excused.
   - pbft restart under loss: with a restart on lossy links, honest pbft
     replicas can disagree (e.g. n=4, seed 764181456, lambda 200,
     N(50,10), loss 0.05, dup 0.01, reorder 50, reliable,
     crash:3@717;restart:3@2638); without loss or without the restart
     the same run agrees. *)
let chained_family = [ "hotstuff-ns"; "librabft" ]

let restarted (config : Config.t) =
  List.exists
    (fun s -> match s.Schedule.action with Schedule.Restart _ -> true | _ -> false)
    config.Config.chaos

let late_delivery (config : Config.t) (result : Controller.result) _ =
  let late_ms = config.Config.loss.Net.Loss_model.reorder_ms +. (0.5 *. config.Config.lambda_ms) in
  List.filter_map
    (fun (v : Invariant.violation) ->
      let in_window (s : Schedule.step) =
        match s.Schedule.action with
        | Schedule.Crash _ ->
          s.Schedule.at_ms <= v.Invariant.at_ms && v.Invariant.at_ms <= s.Schedule.at_ms +. late_ms
        | _ -> false
      in
      if v.Invariant.monitor = "crashed-decide" && List.exists in_window config.Config.chaos then
        Some { Oracle.oracle = "online-crashed-decide"; detail = Invariant.describe_violation v }
      else None)
    result.Controller.violations

let chained_restart (config : Config.t) (result : Controller.result) _ =
  if
    restarted config
    && List.mem config.Config.protocol chained_family
    && result.Controller.outcome <> Controller.Reached_target
  then
    let conflicts = Oracle.recovery ~view_slack:max_int config result in
    List.filter (fun v -> not (List.mem v conflicts)) (Oracle.recovery config result)
  else []

let pbft_restart_under_loss (config : Config.t) _ verdicts =
  if
    config.Config.protocol = "pbft"
    && restarted config
    && not (Net.Loss_model.is_none config.Config.loss)
  then
    List.filter
      (fun v -> v.Oracle.oracle = "agreement" || v.Oracle.oracle = "online-agreement")
      verdicts
  else []

let known_defects =
  [
    ("decided while crashed (late delivery)", late_delivery, true);
    ("chained replica never rejoined", chained_restart, false);
    ("pbft disagreement after restart under loss", pbft_restart_under_loss, true);
  ]

(* A workload run decides request batches, not node inputs: a value is
   valid if the workload cut it or it derives from an input. *)
let workload_verdicts config (result : Controller.result) (audit : Wl.Driver.audit) =
  let cut = Hashtbl.create 64 in
  List.iter (fun (value, _) -> Hashtbl.replace cut value ()) audit.Wl.Driver.batch_log;
  let uncut =
    {
      result with
      Controller.decisions =
        List.map
          (fun (node, values) -> (node, List.filter (fun v -> not (Hashtbl.mem cut v)) values))
          result.Controller.decisions;
    }
  in
  List.filter (fun v -> v.Oracle.oracle <> "validity") (Oracle.check_result config result)
  @ Oracle.validity config uncut

let accounting (p : Wl.Driver.point) (a : Wl.Driver.audit) =
  let open Wl.Driver in
  List.filter_map Fun.id
    [
      (if p.submitted <> p.committed + p.dropped + p.pending + p.in_flight then
         Some
           (Printf.sprintf
              "accounting: submitted %d <> committed %d + dropped %d + pending %d + in_flight %d"
              p.submitted p.committed p.dropped p.pending p.in_flight)
       else None);
      (if List.length a.committed_ids <> p.committed then
         Some "accounting: committed ids disagree with the committed count"
       else None);
      (if List.length a.pending_ids <> p.pending then
         Some "accounting: pending ids disagree with the pending count"
       else None);
      (if List.length a.in_flight_ids <> p.in_flight then
         Some "accounting: in-flight ids disagree with the in-flight count"
       else None);
    ]

type op = {
  label : string;
  failed : bool;
      (** Raised, ended without reaching its decision target, or hit a known
          defect. *)
  outcome : string;
  problems : string list;  (** Incorrect output: oracle verdicts, broken accounting. *)
  fingerprint : string;
}

let check raw =
  let label = label_of raw in
  match raw with
  | Crashed { error; _ } ->
    { label; failed = true; outcome = "raised"; problems = []; fingerprint = "crashed: " ^ error }
  | Sim { result; _ } | Point { result; _ } ->
    let config = result.Controller.config in
    let verdicts, books =
      match raw with
      | Point { audit; point; _ } -> (workload_verdicts config result audit, accounting point audit)
      | _ -> (Oracle.check_result config result, [])
    in
    (* [fails]: the defect fails the operation by itself; otherwise it
       only explains a run that already failed by its outcome. *)
    let defects =
      List.filter_map
        (fun (name, matches, fails) ->
          match matches config result verdicts with [] -> None | vs -> Some (name, vs, fails))
        known_defects
    in
    let excused v = List.exists (fun (_, vs, _) -> List.mem v vs) defects in
    {
      label;
      failed =
        result.Controller.outcome <> Controller.Reached_target
        || List.exists (fun (_, _, fails) -> fails) defects;
      outcome =
        String.concat "; known defect: "
          (Journal.outcome_class result.Controller.outcome
          :: List.map (fun (name, vs, _) -> Printf.sprintf "%s (%s)" name (Oracle.describe (List.hd vs))) defects);
      problems = List.map Oracle.describe (List.filter (fun v -> not (excused v)) verdicts) @ books;
      fingerprint = Conf.Fingerprint.of_result result;
    }

(* ---- simulated outputs, reported ungated ---- *)

let counter r name =
  match r.Controller.metrics with
  | None -> 0.
  | Some m ->
    (match List.assoc_opt name (Bftsim_obs.Metrics.snapshot m) with
    | Some (Bftsim_obs.Metrics.Counter_v c) -> float_of_int c
    | Some (Bftsim_obs.Metrics.Histogram_v h) -> h.Bftsim_obs.Metrics.s_sum
    | _ -> 0.)

let mean = function [] -> nan | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let outputs t raws =
  let results = List.filter_map result_of raws in
  let per_decision = List.map (fun r -> r.Controller.per_decision_messages) results in
  let common = [ ("sim.messages_per_decision", mean per_decision) ] in
  match t.name with
  | "load-geo5" ->
    common
    @ List.concat_map
        (fun protocol ->
          let points =
            List.filter_map
              (function
                | Point { point; result; _ }
                  when result.Controller.config.Config.protocol = protocol ->
                  Some point
                | _ -> None)
              raws
          in
          let knee =
            List.fold_left (fun acc p -> Float.max acc p.Wl.Driver.throughput) 0. points
          in
          (Printf.sprintf "sim.%s.knee_rps" protocol, knee)
          :: List.map
               (fun p ->
                 ( Printf.sprintf "sim.%s.p99_ms@%g" protocol p.Wl.Driver.rate,
                   match p.Wl.Driver.latency with Some s -> s.Stats.p99 | None -> nan ))
               points)
        [ "hotstuff-ns"; "pbft" ]
  | "chaos-recovery" ->
    common
    @ List.concat_map
        (fun r ->
          let c = r.Controller.config in
          let variant = if c.Config.chaos = [] then "clean" else "restart" in
          let key k = Printf.sprintf "sim.%s.%s.seed%d.%s" c.Config.protocol variant c.Config.seed k in
          [
            (key "time_to_target_ms", r.Controller.time_ms);
            (key "net.retrans", counter r "net.retrans");
          ]
          @ if variant = "restart" then [ (key "recovery.catchup_ms", counter r "recovery.catchup_ms") ] else [])
        results
  | _ ->
    common
    @ [ ("sim.latency_ms", mean (List.map (fun r -> r.Controller.per_decision_latency_ms) results)) ]
