open Bftsim_core

type failure = {
  scenario : Scenario.t;
  verdicts : Oracle.verdict list;
  shrunk : Config.t;
  shrunk_verdicts : Oracle.verdict list;
  shrunk_result : Controller.result;
  shrink_attempts : int;
  bundle : string option;
}

type report = {
  scenarios : int;
  checks : int;
  failures : failure list;
  crashed : (int * string) list;
  resumed : int;
}

let ok report = report.failures = [] && report.crashed = []

let check_config ?(determinism = true) ?(expect_live = true) ?cancel config =
  let config = { config with Config.record_trace = true } in
  let result = Runner.run_cancellable ?cancel config in
  let verdicts = Oracle.check_result config result in
  let liveness =
    if expect_live && result.Controller.outcome <> Controller.Reached_target then
      [
        {
          Oracle.oracle = "liveness";
          detail =
            Format.asprintf "expected to reach the decision target but %a after %g ms"
              Controller.pp_outcome result.Controller.outcome result.Controller.time_ms;
        };
      ]
    else []
  in
  let det =
    if not determinism then []
    else begin
      let r = Validator.check_determinism config in
      if r.Validator.decisions_match && r.Validator.trace_match <> Some false then []
      else
        [
          {
            Oracle.oracle = "determinism";
            detail = Format.asprintf "%a" Validator.pp_report r;
          };
        ]
    end
  in
  (verdicts @ liveness @ det, result)

let run_scenario ?determinism ?cancel (scenario : Scenario.t) =
  check_config ?determinism ?cancel ~expect_live:scenario.Scenario.expect_live
    scenario.Scenario.config

let bundle_name idx (config : Config.t) =
  Printf.sprintf "%03d-%s-n%d-seed%d" idx config.Config.protocol config.Config.n config.Config.seed

let campaign_cell ?(mode = "conform") scenarios =
  Journal.fingerprint ~mode ~reps:1
    (List.map (fun (s : Scenario.t) -> s.Scenario.config) scenarios)

(* One scenario check under supervision.  [Passed] covers both a fresh
   pass and one replayed from the journal; failing and crashing scenarios
   are never journaled, so a resumed campaign re-examines them and the
   report comes out identical to an uninterrupted run's. *)
type checked = Passed | Failed of (Oracle.verdict list * Controller.result) | Crashed of string

let fuzz_scenarios ?mode ?jobs ?(determinism = true) ?(shrink = true) ?(shrink_budget = 48)
    ?bundle_dir ?policy ?journal ?resumed ~seed scenarios =
  let policy = match policy with Some p -> p | None -> { Supervisor.default_policy with seed } in
  (* Scenario checks are independent full simulations, so they fan out
     across the domain pool exactly like Runner replications — under
     supervision, so one crashing oracle or hung scenario cannot sink the
     campaign. *)
  let slots =
    Runner.campaign_map ?jobs ?journal ?resumed
      ~supervisor:(Supervisor.create ~policy ())
      ~cell:(campaign_cell ?mode scenarios) ~key:"scenario"
      ~encode:(fun (verdicts, _) -> if verdicts = [] then Some Bftsim_obs.Json.Null else None)
      ~decode:(fun _ -> Ok ())
      (fun ~cancel s -> run_scenario ~determinism ~cancel s)
      scenarios
  in
  let checked =
    List.map
      (function
        | Runner.Resumed () | Runner.Ran (Supervisor.Ok ([], _)) -> Passed
        | Runner.Ran (Supervisor.Ok check) -> Failed check
        | Runner.Ran (Supervisor.Crashed { exn; retries; backtrace = _ }) ->
          Crashed
            (Printf.sprintf "%s (after %d retr%s)" exn retries (if retries = 1 then "y" else "ies"))
        | Runner.Ran (Supervisor.Deadline_exceeded { wall_ms; retries = _ }) ->
          Crashed (Printf.sprintf "wall-clock deadline exceeded after %.0f ms" wall_ms)
        | Runner.Ran (Supervisor.Quarantined { failures }) ->
          Crashed (Printf.sprintf "quarantined after %d failure(s)" failures))
      slots
  in
  let crashed =
    List.concat
      (List.mapi (fun i -> function Crashed d -> [ (i, d) ] | _ -> []) checked)
  in
  let failures =
    List.concat
      (List.map2
         (fun scenario checked_one ->
           match checked_one with
           | Passed | Crashed _ -> []
           | Failed (verdicts, result) -> begin
             let expect_live = scenario.Scenario.expect_live in
             let fails c = fst (check_config ~determinism ~expect_live c) <> [] in
             let shrunk, shrink_attempts =
               if shrink then Shrink.minimize ~budget:shrink_budget ~fails scenario.Scenario.config
               else (scenario.Scenario.config, 0)
             in
             let shrunk_verdicts, shrunk_result =
               if shrunk == scenario.Scenario.config then (verdicts, result)
               else check_config ~determinism ~expect_live shrunk
             in
             [
               {
                 scenario;
                 verdicts;
                 shrunk;
                 shrunk_verdicts;
                 shrunk_result;
                 shrink_attempts;
                 bundle = None;
               };
             ]
           end)
         scenarios checked)
  in
  let failures =
    match bundle_dir with
    | None -> failures
    | Some dir ->
      List.mapi
        (fun idx f ->
          let bundle =
            Bundle.write ~dir ~name:(bundle_name idx f.shrunk) ~original:f.scenario.Scenario.config
              ~shrunk:f.shrunk ~verdicts:f.shrunk_verdicts ~result:f.shrunk_result ()
          in
          { f with bundle = Some bundle })
        failures
  in
  {
    scenarios = List.length scenarios;
    checks = List.length checked;
    failures;
    crashed;
    resumed = Runner.count_resumed slots;
  }

let fuzz ?protocols ?families ?jobs ?determinism ?shrink ?shrink_budget ?bundle_dir ?policy
    ?journal ?resumed ~budget ~seed () =
  let scenarios = Scenario.sample ?protocols ?families ~budget ~seed () in
  fuzz_scenarios ?jobs ?determinism ?shrink ?shrink_budget ?bundle_dir ?policy ?journal ?resumed
    ~seed scenarios

let pp_report ppf r =
  Format.fprintf ppf "%d scenario(s), %d failure(s)%s" r.scenarios (List.length r.failures)
    (if r.crashed = [] then ""
     else Printf.sprintf ", %d crashed check(s)" (List.length r.crashed));
  List.iter
    (fun (idx, detail) -> Format.fprintf ppf "@.CRASH scenario #%d: %s" idx detail)
    r.crashed;
  List.iter
    (fun f ->
      Format.fprintf ppf "@.FAIL %s" (Scenario.describe f.scenario);
      List.iter (fun v -> Format.fprintf ppf "@.  %s" (Oracle.describe v)) f.verdicts;
      Format.fprintf ppf "@.  shrunk (%d attempt(s)) to: %s" f.shrink_attempts
        (Config.describe f.shrunk);
      match f.bundle with
      | Some path -> Format.fprintf ppf "@.  bundle: %s" path
      | None -> ())
    r.failures
