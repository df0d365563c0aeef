(* bftsim — command-line front end of the BFT protocol simulator.

   Mirrors the paper's user story (§III-A): a run is described by a small
   configuration (protocol, network model and parameters, optional attack),
   either as command-line flags or a key = value config file. *)

open Cmdliner
module Core = Bftsim_core
module Net = Bftsim_net
module Protocols = Bftsim_protocols
module Obs = Bftsim_obs

(* Exit codes, standardized across every subcommand (README "Exit
   codes"): 0 success, 1 crash or usage error, 2 safety violation,
   3 liveness failure or wall-clock deadline.  cmdliner's own CLI-error
   and uncaught-exception codes are folded into 1 at the bottom of this
   file. *)
module Exit_code = struct
  let ok = 0
  let crash = 1
  let safety = 2
  let liveness = 3
end

(* Campaign journal plumbing shared by sweep, load, conform and twins:
   --journal FILE opens (or truncates) a journal; --resume additionally
   loads it first and verifies it belongs to this campaign.  --resume
   against a journal that does not exist yet is a fresh start, so scripted
   campaigns can pass both flags unconditionally.  [run] gets the open
   journal and its events; when [resumed] counts skipped items, [note]
   words the progress line, which goes to stderr: stdout must stay
   byte-diffable between resumed and uninterrupted campaigns. *)
let run_journaled ~fingerprint ~journal ~resume ~resumed ~note run finish =
  let opened =
    match (journal, resume) with
    | None, false -> Ok (None, [])
    | None, true -> Error "--resume requires --journal FILE"
    | Some path, true when Sys.file_exists path ->
      Result.map (fun (t, events) -> (Some t, events)) (Core.Journal.resume ~fingerprint path)
    | Some path, _ -> Ok (Some (Core.Journal.create ~fingerprint path), [])
  in
  match opened with
  | Error e ->
    Format.eprintf "error: %s@." e;
    Exit_code.crash
  | Ok (journal, events) ->
    let r = run journal events in
    Option.iter Core.Journal.close journal;
    let k = resumed r in
    if k > 0 then Format.eprintf "resumed: %s@." (note k);
    finish r

let read_config_file path =
  let ic = open_in path in
  let kvs = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if String.length line > 0 && line.[0] <> '#' then
         match String.index_opt line '=' with
         | Some i ->
           let key = String.trim (String.sub line 0 i) in
           let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
           kvs := (key, value) :: !kvs
         | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !kvs

(* Shared flag definitions *)
let config_file_arg =
  let doc = "Configuration file with key = value lines (see bftsim run --help)." in
  Arg.(value & opt (some file) None & info [ "c"; "config" ] ~docv:"FILE" ~doc)

(* The scenario flags a subcommand offers, one per key in the given sets of
   Config's key table; each flag given becomes a key = value pair ahead of
   the config file's lines, so flags override file values. *)
let config_term sets =
  let pair (key, (f : Core.Config.flag)) =
    match f.docv with
    | None ->
      Term.(
        const (fun on -> if on then [ (key, "true") ] else [])
        $ Arg.(value & flag & info f.names ~doc:f.doc))
    | Some docv ->
      Term.(
        const (fun v -> Option.to_list (Option.map (fun v -> (key, v)) v))
        $ Arg.(value & opt (some string) None & info f.names ~docv ~doc:f.doc))
  in
  let flags = List.filter (fun (_, f) -> List.mem f.Core.Config.set sets) Core.Config.flags in
  let flag_kvs =
    List.fold_right (fun f acc -> Term.(const ( @ ) $ pair f $ acc)) flags (Term.const [])
  in
  let config file flag_kvs =
    Core.Config.of_keyvalues (flag_kvs @ Option.fold ~none:[] ~some:read_config_file file)
  in
  Term.(const config $ config_file_arg $ flag_kvs)

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log simulation events.")

(* conform and twins build their Supervisor.policy straight from sweep's
   supervision flags, with the same spellings and help. *)
let policy_term =
  let arg c name =
    let _, f = List.find (fun (_, f) -> List.mem name f.Core.Config.names) Core.Config.flags in
    Arg.(value & opt (some c) None & info f.names ?docv:f.docv ~doc:f.doc)
  in
  let policy deadline retries quarantine seed =
    let d = Core.Supervisor.default_policy in
    {
      d with
      Core.Supervisor.seed;
      deadline_ms = (if Option.is_some deadline then deadline else d.deadline_ms);
      max_retries = Option.value ~default:d.Core.Supervisor.max_retries retries;
      quarantine_after = Option.value ~default:d.Core.Supervisor.quarantine_after quarantine;
    }
  in
  Term.(const policy $ arg Arg.float "deadline" $ arg Arg.int "retries" $ arg Arg.int "quarantine")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Append-only JSONL campaign journal: every completed unit of work is recorded \
                 as it happens, so an interrupted campaign can be resumed with $(b,--resume).")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Load the $(b,--journal) file first and skip work it records as finished; the \
                 final summary is byte-identical to an uninterrupted run's.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Collect the telemetry registry (counters, gauges, histograms) and print it.")

let print_metrics reg = Format.printf "@.--- metrics ---@.%a" Obs.Metrics.pp reg

let setup_logs verbose =
  Bftsim_sim.Simlog.setup_for_cli ~level:(if verbose then Some Logs.Info else Some Logs.Warning)

let print_result (r : Core.Controller.result) =
  Format.printf "protocol        : %s@." r.config.Core.Config.protocol;
  Format.printf "configuration   : %s@." (Core.Config.describe r.config);
  Format.printf "outcome         : %a@." Core.Controller.pp_outcome r.outcome;
  Format.printf "time usage      : %.3f s@." (r.time_ms /. 1000.);
  Format.printf "message usage   : %d messages (%d bytes est., %d dropped by attacker)@."
    r.messages_sent r.bytes_sent r.messages_dropped;
  Format.printf "per decision    : %.3f s, %.1f messages@."
    (r.per_decision_latency_ms /. 1000.)
    r.per_decision_messages;
  Format.printf "events          : %d@." r.events_processed;
  Format.printf "safety          : %s@."
    (if r.safety_ok then "ok (agreement holds)"
     else "VIOLATED: " ^ Option.value ~default:"?" r.safety_violation);
  if r.violations <> [] then
    Format.printf "invariants      : %d violation(s)@.%s@." (List.length r.violations)
      (String.concat "\n"
         (List.map (fun v -> "  " ^ Core.Invariant.describe_violation v) r.violations));
  if r.corrupted <> [] then
    Format.printf "corrupted nodes : %s@."
      (String.concat ", " (List.map string_of_int r.corrupted));
  let decided = List.filter (fun (_, values) -> values <> []) r.decisions in
  (match decided with
  | (_, values) :: _ ->
    Format.printf "decided values  : %s (by %d nodes)@."
      (String.concat "; " values)
      (List.length decided)
  | [] -> Format.printf "decided values  : none@.")

(* --- run --- *)

let run_cmd =
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record an event trace and write it to $(docv) (see $(b,--trace-format)).")
  in
  let trace_format_arg =
    let fmt = Arg.enum [ ("jsonl", Obs.Exporter.Jsonl); ("chrome", Obs.Exporter.Chrome) ] in
    Arg.(value & opt fmt Obs.Exporter.Chrome
         & info [ "trace-format" ] ~docv:"FMT"
             ~doc:"Trace format: $(b,chrome) (Perfetto / chrome://tracing) or $(b,jsonl).")
  in
  let events_arg =
    Arg.(value & flag & info [ "events" ] ~doc:"Dump the replay/validation event log.")
  in
  let views_arg =
    Arg.(value & flag & info [ "views" ] ~doc:"Sample views every 250 ms and render the timeline.")
  in
  let action config trace trace_format metrics events views verbose =
    setup_logs verbose;
    match config with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok config ->
      let telemetry =
        {
          config.Core.Config.telemetry with
          Core.Config.metrics = metrics || config.Core.Config.telemetry.Core.Config.metrics;
          tracing = trace <> None || config.Core.Config.telemetry.Core.Config.tracing;
        }
      in
      let config =
        {
          config with
          Core.Config.record_trace = events;
          view_sample_ms = (if views then Some 250. else config.Core.Config.view_sample_ms);
          telemetry;
        }
      in
      let r = Core.Controller.run config in
      print_result r;
      (match r.trace with
      | Some t when events ->
        Format.printf "@.--- events (%d entries) ---@." (Core.Trace.length t);
        Core.Trace.dump Format.std_formatter t
      | _ -> ());
      (match r.Core.Controller.metrics with
      | Some reg when metrics -> print_metrics reg
      | _ -> ());
      (match (r.Core.Controller.spans, trace) with
      | Some spans, Some path ->
        Obs.Exporter.write_file ~path ~format:trace_format spans;
        Format.printf "wrote %s (%d trace entries, %d dropped)@." path
          (Obs.Tracer.length spans) (Obs.Tracer.dropped spans)
      | _ -> ());
      if views then Format.printf "@.%s@." (Core.View_tracker.render r.view_samples);
      if not r.safety_ok then Exit_code.safety
      else if r.outcome <> Core.Controller.Reached_target then Exit_code.liveness
      else Exit_code.ok
  in
  let term =
    Term.(
      const action
      $ config_term Core.Config.[ Base; Scenario; Transport; Faults ]
      $ trace_arg $ trace_format_arg $ metrics_arg $ events_arg $ views_arg $ verbose_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one simulation and print its metrics") term

(* --- sweep --- *)

let sweep_cmd =
  let reps_arg =
    Arg.(value & opt int 0 & info [ "reps" ] ~docv:"INT" ~doc:"Repetitions (default BFTSIM_REPS or 20).")
  in
  let jobs_arg =
    let doc =
      "Domains to fan repetitions across (default BFTSIM_JOBS, else cores - 1). Results are \
       identical whatever the value; 1 forces the sequential path."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"INT" ~doc)
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-run results as CSV.")
  in
  let action config reps jobs journal resume csv metrics verbose =
    setup_logs verbose;
    match config with
    | Error e ->
      Format.eprintf "error: %s@." e;
      Exit_code.crash
    | Ok config ->
      let config =
        if metrics then
          {
            config with
            Core.Config.telemetry =
              { config.Core.Config.telemetry with Core.Config.metrics = true };
          }
        else config
      in
      let reps = if reps > 0 then Some reps else None in
      let reps_n = match reps with Some r -> r | None -> Core.Runner.default_reps () in
      run_journaled
        ~fingerprint:(Core.Journal.fingerprint ~mode:"sweep" ~reps:reps_n [ config ])
        ~journal ~resume
        ~resumed:(fun s -> s.Core.Runner.resumed)
        ~note:(fun k ->
          Printf.sprintf "%d of %d replication(s) journaled, %d run now" k reps_n (reps_n - k))
        (fun journal resumed -> Core.Runner.run_many ?reps ?jobs ?journal ~resumed config)
      @@ fun summary ->
        Format.printf "%s@." (Core.Config.describe config);
        Format.printf "%a@." Core.Runner.pp_summary summary;
        (* The merged registry is deterministic in the seed sequence, so this
           block is diffable across --jobs values (the CI determinism check)
           and across resume (the registry always rebuilds from digests). *)
        (match summary.Core.Runner.metrics with
        | Some reg when metrics -> print_metrics reg
        | _ -> ());
        List.iter
          (fun (f : Core.Runner.failure) ->
            Format.eprintf "rep %d %s: %s (%d retr%s)@." f.Core.Runner.rep f.Core.Runner.kind
              f.Core.Runner.detail f.Core.Runner.retries
              (if f.Core.Runner.retries = 1 then "y" else "ies"))
          summary.Core.Runner.failures;
        (match csv with
        | None -> ()
        | Some path ->
          Core.Csv_export.write_file ~path ~header:Core.Csv_export.result_header
            ~rows:(List.map (Core.Csv_export.digest_row config) summary.Core.Runner.digests);
          Format.printf "wrote %s (%d rows)@." path (List.length summary.Core.Runner.digests));
        let crashed =
          List.exists
            (fun (f : Core.Runner.failure) -> f.Core.Runner.kind <> "deadline")
            summary.Core.Runner.failures
        in
        if summary.Core.Runner.safety_violations > 0 then Exit_code.safety
        else if crashed then Exit_code.crash
        else if summary.Core.Runner.failures <> [] then Exit_code.liveness
        else Exit_code.ok
  in
  let term =
    Term.(
      const action
      $ config_term Core.Config.[ Base; Scenario; Transport; Faults; Supervision ]
      $ reps_arg $ jobs_arg $ journal_arg $ resume_arg $ csv_arg $ metrics_arg $ verbose_arg)
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Run a configuration repeatedly and report mean/stddev") term

(* --- load --- *)

let load_cmd =
  let module Wl = Bftsim_workload in
  let rates_arg =
    Arg.(value & opt string "50,100,200,400,800,1600"
         & info [ "rates" ] ~docv:"LIST"
             ~doc:"Comma-separated offered rates (req/s); one simulation per rate.")
  in
  let arrival_arg =
    Arg.(value & opt string "poisson:1"
         & info [ "arrival" ] ~docv:"SPEC"
             ~doc:"Arrival process shape: constant:<rate> | poisson:<rate> | \
                   onoff:<rate>,<on_ms>,<off_ms>.  The rate is overridden by each $(b,--rates) \
                   point; the shape (and on/off windows) is kept.")
  in
  let batch_arg =
    Arg.(value & opt string (Wl.Batch.to_cli_string Wl.Batch.default)
         & info [ "batch" ] ~docv:"SIZE[@WAIT]"
             ~doc:"Leader batching: cut at SIZE requests or after WAIT ms, whichever first.")
  in
  let mempool_arg =
    Arg.(value & opt int 4096
         & info [ "mempool" ] ~docv:"INT" ~doc:"Mempool capacity (requests beyond it are dropped).")
  in
  let clients_arg =
    Arg.(value & opt string "open"
         & info [ "clients" ] ~docv:"MODE"
             ~doc:"Client loop: open (arrival-process driven, the default) | closed:<cap> — a \
                   fixed population each keeping <cap> requests in flight; with closed loops \
                   each $(b,--rates) entry is a population size, not a req/s rate.")
  in
  let keys_arg =
    Arg.(value & opt string "single"
         & info [ "keys" ] ~docv:"DIST"
             ~doc:"Request key distribution: single (default, unkeyed) | uniform:<n> | \
                   zipf:<s>[,<n>].  Adjacent commits with equal keys count as wl.key_conflicts.")
  in
  let heights_arg =
    Arg.(value & opt int 50
         & info [ "heights" ] ~docv:"INT" ~doc:"Consensus heights to drive per point.")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"INT"
             ~doc:"Domains to fan rate points across (default BFTSIM_JOBS, else cores - 1). \
                   The curve is byte-identical whatever the value.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write the curve as CSV.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write the curve as JSON.")
  in
  let action config rates arrival batch mempool clients keys heights jobs journal resume csv out
      metrics verbose =
    setup_logs verbose;
    let parse_rates s =
      let items = List.filter (fun x -> x <> "") (String.split_on_char ',' s) in
      let rec go acc = function
        | [] -> if acc = [] then Error "empty --rates" else Ok (List.rev acc)
        | x :: rest -> (
          match float_of_string_opt x with
          | Some r when r > 0. -> go (r :: acc) rest
          | _ -> Error (Printf.sprintf "invalid rate %S" x))
      in
      go [] items
    in
    let spec =
      let ( let* ) = Result.bind in
      let* rates = parse_rates rates in
      let* arrival = Wl.Arrival.of_string arrival in
      let* policy = Wl.Batch.of_string batch in
      let* clients = Wl.Driver.clients_of_string clients in
      let* keys = Wl.Keys.of_string keys in
      let* config = config in
      (* --heights is the decision target, whatever the config file says. *)
      let config = { config with Core.Config.decisions_target = heights } in
      let* () =
        match Core.Config.validate config with
        | () -> Ok ()
        | exception Invalid_argument e -> Error e
      in
      Ok (rates, arrival, policy, clients, keys, config)
    in
    match spec with
    | Error e ->
      Format.eprintf "error: %s@." e;
      Exit_code.crash
    | Ok (rates, arrival, policy, clients, keys, config) ->
      let config =
        if metrics then
          {
            config with
            Core.Config.telemetry =
              { config.Core.Config.telemetry with Core.Config.metrics = true };
          }
        else config
      in
      let driver = Wl.Driver.make ~arrival ~policy ~mempool_capacity:mempool ~clients ~keys () in
      let points = List.length rates in
      run_journaled ~fingerprint:(Wl.Driver.fingerprint driver config ~rates) ~journal ~resume
        ~resumed:(fun c -> c.Wl.Driver.resumed)
        ~note:(fun k ->
          Printf.sprintf "%d of %d point(s) journaled, %d run now" k points (points - k))
        (fun journal resumed -> Wl.Driver.sweep ?jobs ?journal ~resumed driver config ~rates)
      @@ fun curve ->
        Format.printf "%s@." (Core.Config.describe config);
        Format.printf "workload: %s, %d height(s) per point@." (Wl.Driver.describe driver)
          heights;
        Format.printf "%a" Wl.Driver.pp_curve curve;
        (match curve.Wl.Driver.metrics with
        | Some reg when metrics -> print_metrics reg
        | _ -> ());
        (match csv with
        | None -> ()
        | Some path ->
          Core.Csv_export.write_file ~path ~header:Wl.Driver.header
            ~rows:(List.map Wl.Driver.row curve.Wl.Driver.points);
          Format.printf "wrote %s (%d rows)@." path (List.length curve.Wl.Driver.points));
        (match out with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          output_string oc (Obs.Json.to_string (Wl.Driver.curve_to_json curve));
          output_char oc '\n';
          close_out oc;
          Format.printf "wrote %s@." path);
        if
          List.exists
            (fun (p : Wl.Driver.point) -> p.Wl.Driver.outcome = "event-cap")
            curve.Wl.Driver.points
        then Exit_code.crash
        else Exit_code.ok
  in
  let term =
    Term.(
      const action
      $ config_term Core.Config.[ Base; Faults; Placement ]
      $ rates_arg $ arrival_arg $ batch_arg $ mempool_arg $ clients_arg $ keys_arg $ heights_arg
      $ jobs_arg $ journal_arg $ resume_arg $ csv_arg $ out_arg $ metrics_arg $ verbose_arg)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Load sweep: open- or closed-loop clients feed a bounded mempool, leaders batch \
          requests through pipelined consensus (stale batches re-queue on view change), and \
          each offered rate yields one point of the throughput-latency curve (saturation knee \
          included)")
    term

(* --- list --- *)

let list_cmd =
  let action () =
    Format.printf "%-12s %-22s %s@." "name" "network model" "measurement";
    List.iter
      (fun (module P : Protocols.Protocol_intf.S) ->
        Format.printf "%-12s %-22s %s@." P.name
          (Protocols.Protocol_intf.network_model_to_string P.model)
          (if P.pipelined then "10 decisions (pipelined)" else "1 decision"))
      (Protocols.Registry.all ());
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the implemented protocols (paper Table I)")
    Term.(const action $ const ())

(* --- validate --- *)

let validate_cmd =
  let action config verbose =
    setup_logs verbose;
    match config with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok config ->
      let det = Core.Validator.check_determinism config in
      Format.printf "determinism : %a@." Core.Validator.pp_report det;
      let ground = Core.Controller.run { config with Core.Config.record_trace = true } in
      let replayed = Core.Validator.validate_against ~ground_truth:ground config in
      Format.printf "replay      : %a@." Core.Validator.pp_report replayed;
      (* A trace difference with equal decisions still means the run is
         not reproducible. *)
      let holds (r : Core.Validator.report) =
        r.Core.Validator.decisions_match && r.Core.Validator.trace_match <> Some false
      in
      if holds det && holds replayed then Exit_code.ok else Exit_code.safety
  in
  let term =
    Term.(const action $ config_term Core.Config.[ Base; Scenario ] $ verbose_arg)
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Cross-validate a configuration (determinism and trace replay)")
    term

(* --- conform and twins: scenario campaigns --- *)

module Conf = Bftsim_conformance

(* What the two campaign commands share: how each scenario is checked,
   where counterexamples go, the journal and the supervision policy. *)
type campaign = {
  jobs : int option;
  determinism : bool;
  shrink : bool;
  shrink_budget : int;
  out : string;
  journal : string option;
  resume : bool;
  policy : int -> Core.Supervisor.policy;
}

let campaign_term ~out =
  let out_arg =
    Arg.(value & opt string out
         & info [ "out" ] ~docv:"DIR" ~doc:"Directory for shrunk counterexample bundles.")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"INT"
             ~doc:"Domains to fan scenario checks across (default BFTSIM_JOBS, else cores - 1).")
  in
  let no_det_arg =
    Arg.(value & flag
         & info [ "no-determinism" ]
             ~doc:"Skip the per-scenario determinism replay (3x faster, safety oracles only).")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Keep failing configs as generated, do not minimize.")
  in
  let shrink_budget_arg =
    Arg.(value & opt int 48
         & info [ "shrink-budget" ] ~docv:"INT"
             ~doc:"Max harness re-evaluations the shrinker may spend per counterexample.")
  in
  let make out jobs no_det no_shrink shrink_budget journal resume policy =
    { jobs; determinism = not no_det; shrink = not no_shrink; shrink_budget; out; journal; resume; policy }
  in
  Term.(
    const make $ out_arg $ jobs_arg $ no_det_arg $ no_shrink_arg $ shrink_budget_arg $ journal_arg
    $ resume_arg $ policy_term)

(* A comma-separated list, each item checked by [parse]; [None] stays
   [None] (the command's default). *)
let parse_list parse label = function
  | None -> Ok None
  | Some s ->
    let items = List.filter (fun x -> x <> "") (String.split_on_char ',' s) in
    let rec go acc = function
      | [] -> Ok (Some (List.rev acc))
      | x :: rest -> (
        match parse x with
        | Some v -> go (v :: acc) rest
        | None -> Error (Printf.sprintf "unknown %s %S" label x))
    in
    go [] items

let protocol_names =
  parse_list (fun name -> Option.map (fun _ -> name) (Protocols.Registry.find name)) "protocol"

(* Check [scenarios] through the harness under the campaign's journal,
   print the report and pick the exit code; [failed] picks it when some
   scenario failed an oracle. *)
let run_campaign c ?mode ~name ~failed ~seed scenarios =
  let total = List.length scenarios in
  run_journaled ~fingerprint:(Conf.Harness.campaign_cell ?mode scenarios) ~journal:c.journal
    ~resume:c.resume
    ~resumed:(fun r -> r.Conf.Harness.resumed)
    ~note:(fun k -> Printf.sprintf "%d of %d check(s) already journaled as passed" k total)
    (fun journal resumed ->
      Conf.Harness.fuzz_scenarios ?mode ?jobs:c.jobs ~determinism:c.determinism ~shrink:c.shrink
        ~shrink_budget:c.shrink_budget ~bundle_dir:c.out ~policy:(c.policy seed) ?journal ~resumed
        ~seed scenarios)
  @@ fun report ->
    Format.printf "%a@." Conf.Harness.pp_report report;
    if Conf.Harness.ok report then begin
      Format.printf "%s OK: %d scenario(s), all oracles hold@." name report.Conf.Harness.scenarios;
      Exit_code.ok
    end
    else if report.Conf.Harness.failures <> [] then failed report
    else Exit_code.crash

let conform_cmd =
  let budget_arg =
    Arg.(value & opt int 32
         & info [ "budget" ] ~docv:"SEEDS"
             ~doc:"Number of random scenarios to generate and check.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"INT" ~doc:"Fuzzing seed (scenario batch is a pure function of it).") in
  let protocols_arg =
    Arg.(value & opt (some string) None
         & info [ "protocols" ] ~docv:"NAMES"
             ~doc:"Comma-separated protocol names to fuzz (default: all registered).")
  in
  let families_arg =
    Arg.(value & opt (some string) None
         & info [ "families" ] ~docv:"LIST"
             ~doc:"Comma-separated attacker families: none, failstop, partition, delay, chaos, \
                   twins (default: all).")
  in
  let action budget seed protocols families campaign verbose =
    setup_logs verbose;
    match (protocol_names protocols, parse_list Conf.Scenario.family_of_string "family" families) with
    | Error e, _ | _, Error e ->
      Format.eprintf "error: %s@." e;
      Exit_code.crash
    | Ok protocols, Ok families ->
      (match Protocols.Quorum.mutation () with
      | Some m ->
        Format.printf "MUTATION ACTIVE: %s (expect failures)@."
          (Protocols.Quorum.mutation_to_string m)
      | None -> ());
      run_campaign campaign ~name:"conformance"
        ~failed:(fun _ -> Exit_code.safety)
        ~seed
        (Conf.Scenario.sample ?protocols ?families ~budget ~seed ())
  in
  let term =
    Term.(
      const action $ budget_arg $ seed_arg $ protocols_arg $ families_arg
      $ campaign_term ~out:"conform-out" $ verbose_arg)
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Fuzz random scenarios across protocols, attackers and network models; check protocol \
          oracles (agreement, validity, integrity, quorum sanity) plus replay determinism; \
          shrink and persist any counterexample")
    term

let twins_cmd =
  let module Twins = Bftsim_twins in
  let budget_arg =
    Arg.(value & opt int 128
         & info [ "budget" ] ~docv:"INT"
             ~doc:"Max enumerated schedules to check (most-adversarial-first); each is crossed \
                   with every selected protocol.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"INT"
             ~doc:"Config seed shared by every scenario (the schedule set itself is \
                   deterministic).")
  in
  let protocols_arg =
    Arg.(value & opt (some string) None
         & info [ "protocols" ] ~docv:"NAMES"
             ~doc:"Comma-separated protocol names (default: every applicable registered \
                   protocol).")
  in
  let n_arg =
    Arg.(value & opt int Twins.Synth.default_params.Twins.Synth.n
         & info [ "nodes" ] ~docv:"INT" ~doc:"Logical system size (physical size is n + 1).")
  in
  let rounds_arg =
    Arg.(value & opt int Twins.Synth.default_params.Twins.Synth.rounds
         & info [ "rounds" ] ~docv:"INT" ~doc:"Schedule length in partition rounds.")
  in
  let round_ms_arg =
    Arg.(value & opt float Twins.Synth.default_params.Twins.Synth.round_ms
         & info [ "round-ms" ] ~docv:"MS" ~doc:"Duration of one schedule round.")
  in
  let enumerate_only_arg =
    Arg.(value & flag
         & info [ "enumerate-only" ]
             ~doc:"Print enumeration statistics (raw, unique, emitted schedule counts) and \
                   exit without running anything.")
  in
  (* Liveness-only findings (a stalled pacemaker) exit 3; anything touching
     a safety oracle exits 2. *)
  let failed report =
    let liveness_only =
      List.for_all
        (fun f -> List.for_all (fun v -> v.Conf.Oracle.oracle = "liveness") f.Conf.Harness.verdicts)
        report.Conf.Harness.failures
    in
    if liveness_only then Exit_code.liveness else Exit_code.safety
  in
  let action budget seed protocols n rounds round_ms enumerate_only campaign verbose =
    setup_logs verbose;
    match protocol_names protocols with
    | Error e ->
      Format.eprintf "error: %s@." e;
      Exit_code.crash
    | Ok protocols -> (
      let params =
        { Twins.Synth.default_params with Twins.Synth.n; rounds; round_ms; seed }
      in
      match Twins.Synth.synthesize ?protocols ~budget ~params () with
      | exception Invalid_argument e ->
        Format.eprintf "error: %s@." e;
        Exit_code.crash
      | scenarios, stats ->
        Format.printf "twins enumeration: %a@." Twins.Synth.pp_stats stats;
        if enumerate_only then Exit_code.ok
        else if scenarios = [] then begin
          Format.eprintf "error: no applicable protocol selected@.";
          Exit_code.crash
        end
        else begin
          Format.printf "checking %d scenario(s) across %d protocol(s)@."
            (List.length scenarios)
            (List.length scenarios / stats.Twins.Enumerate.emitted);
          run_campaign campaign ~mode:"twins" ~name:"twins" ~failed ~seed scenarios
        end)
  in
  let term =
    Term.(
      const action $ budget_arg $ seed_arg $ protocols_arg $ n_arg $ rounds_arg $ round_ms_arg
      $ enumerate_only_arg $ campaign_term ~out:"twins-out" $ verbose_arg)
  in
  Cmd.v
    (Cmd.info "twins"
       ~doc:
         "Systematic Twins-style Byzantine testing: enumerate duplicate-identity schedules \
          (partition rounds + pinned leaders, symmetry-deduplicated), run each against the \
          selected protocols, and judge with the conformance oracles; counterexamples are \
          shrunk and persisted as replayable bundles")
    term

(* --- loc --- *)

let loc_cmd =
  let action () =
    match Core.Loc_count.find_root () with
    | None ->
      Format.eprintf "error: repository sources not found (run from the repo)@.";
      1
    | Some root ->
      Format.printf "Table I: implemented BFT protocols@.";
      Format.printf "  %-22s %-22s %s@." "protocol" "network model" "LoC";
      List.iter
        (fun (e : Core.Loc_count.entry) ->
          Format.printf "  %-22s %-22s %d@." e.label e.network_model e.loc)
        (Core.Loc_count.table1 ~root);
      Format.printf "Table II: implemented attacks@.";
      Format.printf "  %-26s %-20s %s@." "attack" "capability" "LoC";
      List.iter
        (fun (e : Core.Loc_count.entry) ->
          Format.printf "  %-26s %-20s %d@." e.label e.network_model e.loc)
        (Core.Loc_count.table2 ~root);
      0
  in
  Cmd.v (Cmd.info "loc" ~doc:"Lines-of-code inventory (paper Tables I and II)")
    Term.(const action $ const ())

let main_cmd =
  let doc = "Efficient and flexible simulator for BFT protocols (DSN 2022 reproduction)" in
  let info = Cmd.info "bftsim" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ run_cmd; sweep_cmd; load_cmd; list_cmd; validate_cmd; conform_cmd; twins_cmd; loc_cmd ]

let () =
  (* Simulation-profile GC for the coordinating domain; Parallel.map does
     the same for every worker it spawns. *)
  Core.Parallel.tune_gc ();
  (* One exit-code scheme for the whole binary: fold cmdliner's CLI-error
     (124) and uncaught-exception (125) codes into 1. *)
  exit (match Cmd.eval' ~term_err:Exit_code.crash main_cmd with 124 | 125 -> Exit_code.crash | c -> c)
