(* Supervised replication campaigns (DESIGN.md §3.13).

   [campaign_map] is the one journaled campaign loop; [run_many] runs
   replications through it under a [Supervisor]: a crashing or
   deadline-overrunning replication becomes a structured failure in the
   summary instead of sinking the batch, and completed replications are
   journaled as digests so an interrupted campaign resumes where it
   stopped.

   The byte-identity contract: the summary is computed from digests on
   {e every} path — statistics from digest fields, the merged registry from
   each digest's JSON-encoded registry — so a resumed campaign and an
   uninterrupted one print identical summaries at any pool size.  The only
   field that sees live [Controller.result]s is [results], kept for callers
   (benchmarks, tests) that inspect full runs and documented as holding
   this process's completions only. *)

module Metrics = Bftsim_obs.Metrics

type failure = { rep : int; kind : string; detail : string; retries : int }

type summary = {
  config : Config.t;
  reps : int;
  completed : int;
  latency_ms : Stats.t;
  messages : Stats.t;
  liveness_failures : int;
  safety_violations : int;
  metrics : Metrics.t option;
  results : Controller.result list;
  digests : Journal.digest list;
  failures : failure list;
  supervision : Supervisor.stats;
  resumed : int;
}

(* The supervised stepping loop: the test-only fault injection first, then
   the cooperative wall-clock deadline (DESIGN.md §3.13) polled between
   events.  A run that completes is never perturbed, so its result stays
   deterministic. *)
let run_cancellable ?(cancel = fun () -> false) (config : Config.t) =
  Supervisor.inject_faults ~cancel ~seed:config.Config.seed;
  let t = Controller.create config in
  let rec loop () =
    if cancel () then raise Supervisor.Cancelled;
    if Controller.step t then loop ()
  in
  Fun.protect ~finally:(fun () -> Controller.close t) loop;
  Controller.finish t

let default_reps () =
  match Sys.getenv_opt "BFTSIM_REPS" with
  | Some v -> ( match int_of_string_opt v with Some r when r > 0 -> r | _ -> 20)
  | None -> 20

(* The campaign loop shared by [run_many], the load driver and the
   conformance harness: skip what the journal holds, fan the rest over the
   domain pool, journal each finished item from inside its worker (a
   campaign killed mid-flight keeps everything that finished) and splice
   the results back in input order. *)
type ('fresh, 'kept) slot = Resumed of 'kept | Ran of 'fresh Supervisor.outcome

let campaign_map ?jobs ?journal ?(resumed = []) ?supervisor ~cell ~key ~encode ~decode run items
    =
  let n = List.length items in
  let kept = Array.make n None in
  List.iter
    (fun (i, body) ->
      if i >= 0 && i < n then
        match decode body with Ok v -> kept.(i) <- Some v | Error _ -> ())
    (Journal.completed resumed ~cell);
  let on_failure i ~attempt ~wall_ms kind =
    let kind, detail, backtrace =
      match kind with
      | Supervisor.Crash { exn; backtrace } -> ("crash", exn, backtrace)
      | Supervisor.Deadline -> ("deadline", "wall-clock deadline exceeded", "")
    in
    Option.iter
      (fun j ->
        Journal.append j
          (Journal.Failure { cell; index = i; attempt; wall_ms; kind; detail; backtrace }))
      journal
  in
  let pending = List.filteri (fun i _ -> kept.(i) = None) (List.mapi (fun i x -> (i, x)) items) in
  let ran =
    Parallel.map ?jobs
      (fun (i, x) ->
        let outcome =
          match supervisor with
          | None -> Supervisor.Ok (run ~cancel:(fun () -> false) x)
          | Some s ->
            Supervisor.supervise s ~key:(key ^ string_of_int i) ~on_failure:(on_failure i)
              (fun ~cancel -> run ~cancel x)
        in
        (match (journal, outcome) with
        | Some j, Supervisor.Ok v ->
          Option.iter
            (fun body -> Journal.append j (Journal.Done { cell; index = i; body }))
            (encode v)
        | _ -> ());
        outcome)
      pending
  in
  let fresh = Array.make n None in
  List.iter2 (fun (i, _) outcome -> fresh.(i) <- Some outcome) pending ran;
  List.init n (fun i ->
      match (kept.(i), fresh.(i)) with
      | Some v, _ -> Resumed v
      | None, Some outcome -> Ran outcome
      | None, None -> assert false)

let count_resumed slots =
  List.length (List.filter (function Resumed _ -> true | Ran _ -> false) slots)

let run_many ?reps ?jobs ?journal ?resumed (config : Config.t) =
  let reps = match reps with Some r -> r | None -> default_reps () in
  if reps <= 0 then invalid_arg "Runner.run_many: reps <= 0";
  let supervisor = Supervisor.create ~policy:(Supervisor.policy_of_config config) () in
  (* Replications are independent (distinct seeds, no shared mutable
     state), so they fan out across the domain pool; [supervise] never
     raises, so one bad replication cannot discard the others in flight. *)
  let slots =
    campaign_map ?jobs ?journal ?resumed ~supervisor ~cell:(Journal.cell_of_config config)
      ~key:"rep"
      ~encode:(fun (d, _) -> Some (Journal.digest_to_json d))
      ~decode:Journal.digest_of_json
      (fun ~cancel k ->
        let r = run_cancellable ~cancel { config with Config.seed = config.Config.seed + k } in
        (Journal.digest_of_result ~rep:k r, r))
      (List.init reps Fun.id)
  in
  let digests =
    List.filter_map
      (function Resumed d | Ran (Supervisor.Ok (d, _)) -> Some d | Ran _ -> None)
      slots
  in
  let failures =
    List.filter_map Fun.id
      (List.mapi
         (fun k -> function
           | Resumed _ | Ran (Supervisor.Ok _) -> None
           | Ran (Supervisor.Crashed { exn; backtrace = _; retries }) ->
             Some { rep = k; kind = "crash"; detail = exn; retries }
           | Ran (Supervisor.Deadline_exceeded { wall_ms; retries }) ->
             Some
               {
                 rep = k;
                 kind = "deadline";
                 detail = Printf.sprintf "%.0f ms wall" wall_ms;
                 retries;
               }
           | Ran (Supervisor.Quarantined { failures }) ->
             Some
               {
                 rep = k;
                 kind = "quarantined";
                 detail = Printf.sprintf "%d earlier failure(s)" failures;
                 retries = 0;
               })
         slots)
  in
  if digests = [] then
    invalid_arg
      (Printf.sprintf "Runner.run_many: every replication failed (%d failure(s), e.g. %s)"
         (List.length failures)
         (match failures with [] -> "none recorded" | f :: _ -> f.kind ^ ": " ^ f.detail));
  (* Every aggregate below reads digests, never live results: journaled
     floats round-trip exactly through the JSON codec, so resumed and
     uninterrupted campaigns aggregate identical sequences (in rep order,
     whatever the pool interleaving was). *)
  let latencies = List.map (fun d -> d.Journal.latency_ms) digests in
  let messages = List.map (fun d -> d.Journal.messages) digests in
  let liveness_failures =
    List.length (List.filter (fun d -> d.Journal.outcome <> "reached-target") digests)
  in
  let safety_violations = List.length (List.filter (fun d -> not d.Journal.safety_ok) digests) in
  let metrics =
    match List.filter_map (fun d -> d.Journal.metrics) digests with
    | [] -> None
    | encoded ->
      Some
        (Metrics.merge
           (List.map
              (fun j ->
                match Metrics.of_json j with
                | Ok m -> m
                | Error e -> invalid_arg ("Runner.run_many: bad journaled registry: " ^ e))
              encoded))
  in
  {
    config;
    reps;
    completed = List.length digests;
    latency_ms = Stats.of_list latencies;
    messages = Stats.of_list messages;
    liveness_failures;
    safety_violations;
    metrics;
    results =
      List.filter_map (function Ran (Supervisor.Ok (_, r)) -> Some r | _ -> None) slots;
    digests;
    failures;
    supervision = Supervisor.stats supervisor;
    resumed = count_resumed slots;
  }

let pp_summary ppf s =
  let count kind = List.length (List.filter (fun f -> f.kind = kind) s.failures) in
  let crashed = count "crash" in
  let timed_out = count "deadline" in
  let quarantined = count "quarantined" in
  Format.fprintf ppf "%-12s latency %a msgs %a%s%s%s%s%s" s.config.Config.protocol Stats.pp_ms_as_s
    s.latency_ms Stats.pp s.messages
    (if s.liveness_failures > 0 then Printf.sprintf " [%d liveness failures]" s.liveness_failures
     else "")
    (if s.safety_violations > 0 then Printf.sprintf " [%d SAFETY VIOLATIONS]" s.safety_violations
     else "")
    (if crashed > 0 then Printf.sprintf " [%d crashed]" crashed else "")
    (if timed_out > 0 then Printf.sprintf " [%d timed out]" timed_out else "")
    (if quarantined > 0 then Printf.sprintf " [%d quarantined]" quarantined else "")
