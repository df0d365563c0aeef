open Bftsim_core
module Attack = Bftsim_attack
module Protocols = Bftsim_protocols
module Conf = Bftsim_conformance

type params = {
  n : int;
  rounds : int;
  round_ms : float;
  lambda_ms : float;
  delay_ms : float;
  seed : int;
  max_time_ms : float;
}

let default_params =
  {
    n = 4;
    rounds = 3;
    (* One base view per round: views last 2*lambda at the base cadence, so
       each round gives the protocol one leader slot under that round's
       partition. *)
    round_ms = 2000.;
    lambda_ms = 1000.;
    delay_ms = 100.;
    seed = 1;
    max_time_ms = 240_000.;
  }

(* The subset twins scenarios apply to (non-synchronous models). *)
let applicable_protocols names =
  List.filter
    (fun name ->
      let model = Protocols.Protocol_intf.model (Protocols.Registry.find_exn name) in
      Conf.Scenario.applicable ~model Conf.Scenario.Twins)
    names

(* Unlike the random conformance fuzzer, the enumerator does NOT exempt
   crash-fragile protocols from liveness judgment: rediscovering a
   documented pacemaker weakness (hotstuff-ns's never-reset exponential
   backoff) from scratch is exactly what a twins campaign is for.  Only
   schedules that keep every honest node quorum-connected are judged for
   liveness at all; the rest are safety-only. *)
let scenario_of ~params protocol schedule =
  let tw = Enumerate.to_twins_schedule ~n:params.n ~round_ms:params.round_ms schedule in
  let config =
    Config.make protocol ~n:params.n ~lambda_ms:params.lambda_ms
      ~delay:(Bftsim_net.Delay_model.Constant params.delay_ms)
      ~seed:params.seed ~twins:tw ~inputs:Config.Distinct ~max_time_ms:params.max_time_ms
  in
  let expect_live =
    Attack.Twins_schedule.preserves_liveness ~n:params.n
      ~quorum:(Protocols.Quorum.quorum params.n) tw
  in
  { Conf.Scenario.config; family = Conf.Scenario.Twins; expect_live }

let synthesize ?protocols ~budget ~params () =
  if budget <= 0 then invalid_arg "Twins.Synth.synthesize: budget <= 0";
  let protocols =
    match protocols with
    | Some ps when ps <> [] -> applicable_protocols ps
    | _ -> applicable_protocols (Protocols.Registry.names ())
  in
  let schedules, stats = Enumerate.enumerate ~n:params.n ~rounds:params.rounds in
  let emitted = List.filteri (fun i _ -> i < budget) schedules in
  let scenarios =
    List.concat_map
      (fun protocol -> List.map (scenario_of ~params protocol) emitted)
      protocols
  in
  (scenarios, { stats with Enumerate.emitted = List.length emitted })

let pp_stats ppf (stats : Enumerate.stats) =
  Format.fprintf ppf "%d raw schedule(s), %d unique (dedup %.2fx), %d emitted" stats.enumerated
    stats.unique
    (if stats.unique = 0 then 1. else float_of_int stats.enumerated /. float_of_int stats.unique)
    stats.emitted
