open Bftsim_core
module Attack = Bftsim_attack
module Protocols = Bftsim_protocols

type verdict = { oracle : string; detail : string }

let describe v = Printf.sprintf "[%s] %s" v.oracle v.detail

(* Protocols whose decided values are (derived from) the proposed inputs;
   chained protocols decide block digests, so validity is meaningless there
   (the same reasoning as Config.check_validity's default).  async-ba is
   excluded: it hashes non-binary inputs down to a bit, so its decisions
   derive from proposals only under already-binary inputs — handled
   separately below. *)
let value_deciding = [ "add-v1"; "add-v2"; "add-v3"; "algorand"; "pbft" ]

(* One-shot consensus: each node decides exactly once, so a second decision
   is a decide-once (integrity) violation.  Multi-slot and chained
   protocols may legitimately overshoot the decision target (a single
   3-chain commit can decide several ancestor blocks at once). *)
let one_shot = [ "add-v1"; "add-v2"; "add-v3"; "algorand"; "async-ba" ]

(* A twinned identity is the run's emulated Byzantine node: its two halves
   may legitimately equivocate, so its decisions never count towards the
   safety oracles — the violation to detect is disagreement among the
   remaining honest identities. *)
let twinned (config : Config.t) node =
  match config.Config.twins with
  | None -> false
  | Some tw -> List.mem node tw.Attack.Twins_schedule.ids

(* A node's decisions count towards safety oracles when it is honest for
   the whole run: not config-crashed, not adaptively corrupted, not
   twinned. *)
let counted (config : Config.t) (result : Controller.result) node =
  (not (List.mem node config.Config.crashed))
  && (not (List.mem node result.Controller.corrupted))
  && not (twinned config node)

(* Per-index agreement additionally presumes a complete decision log, which
   chaos-crashed-and-recovered nodes do not have (no state transfer), and
   neither does an honest node a twins round ever cut off from a quorum. *)
let aligned (config : Config.t) (result : Controller.result) node =
  counted config result node
  && (not (Attack.Fault_schedule.ever_crashed config.Config.chaos ~node))
  && not
       (match config.Config.twins with
       | None -> false
       | Some tw ->
         Attack.Twins_schedule.isolated_below_quorum ~n:config.Config.n
           ~quorum:(Protocols.Quorum.quorum config.Config.n) tw ~node)

let agreement_over ~aligned decisions =
  let verdicts = ref [] in
  let by_index : (int, int * string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (node, values) ->
      if aligned node then
        List.iteri
          (fun k value ->
            match Hashtbl.find_opt by_index k with
            | None -> Hashtbl.replace by_index k (node, value)
            | Some (other, expected) ->
              if not (String.equal expected value) then
                verdicts :=
                  {
                    oracle = "agreement";
                    detail =
                      Printf.sprintf "decision %d: node %d decided %S but node %d decided %S" k
                        node value other expected;
                  }
                  :: !verdicts)
          values)
    decisions;
  List.rev !verdicts

let agreement config result =
  agreement_over ~aligned:(aligned config result) result.Controller.decisions

let validity config result =
  let proposals = List.init config.Config.n (Config.input_for config) in
  let binary = List.for_all (fun p -> p = "0" || p = "1") proposals in
  let derives =
    if List.mem config.Config.protocol value_deciding then
      Some (Invariant.derived_from_proposal proposals)
    else if config.Config.protocol = "async-ba" && binary then
      (* Binary validity: with all-binary inputs the decided bit must have
         been proposed by someone. *)
      Some (fun value -> List.mem value proposals)
    else None
  in
  match derives with
  | None -> []
  | Some derives ->
    List.concat_map
      (fun (node, values) ->
        if not (counted config result node) then []
        else
          List.filter_map
            (fun value ->
              if derives value then None
              else
                Some
                  {
                    oracle = "validity";
                    detail =
                      Printf.sprintf "node %d decided %S, which derives from no proposed value"
                        node value;
                  })
            values)
      result.Controller.decisions

let integrity config result =
  let verdicts = ref [] in
  let flag detail = verdicts := { oracle = "integrity"; detail } :: !verdicts in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (node, values) ->
      let occurrences = 1 + Option.value ~default:0 (Hashtbl.find_opt seen node) in
      Hashtbl.replace seen node occurrences;
      (* A twinned identity legitimately contributes one row per physical
         half; anything beyond the expected multiplicity is a corrupted
         decision table. *)
      let allowed = if twinned config node then 2 else 1 in
      if occurrences > allowed then
        flag
          (Printf.sprintf "node %d appears %d times in the decision table (expected %d)" node
             occurrences allowed);
      if List.mem node config.Config.crashed && values <> [] then
        flag
          (Printf.sprintf "config-crashed node %d decided %d value(s)" node (List.length values));
      if
        List.mem config.Config.protocol one_shot
        && counted config result node
        && List.length values > 1
      then
        flag
          (Printf.sprintf "node %d decided %d times in a one-shot consensus" node
             (List.length values)))
    result.Controller.decisions;
  List.rev !verdicts

let qc_sanity ~n =
  let f = Protocols.Quorum.max_faulty n in
  let q = Protocols.Quorum.quorum n in
  let verdicts = ref [] in
  let flag detail = verdicts := { oracle = "qc-sanity"; detail } :: !verdicts in
  if q > n then flag (Printf.sprintf "quorum %d exceeds n = %d" q n);
  if q < 1 then flag (Printf.sprintf "quorum %d is empty (n = %d)" q n);
  (* Quorum intersection: two quorums overlap in at least 2q - n nodes; that
     overlap must contain an honest node, i.e. exceed f. *)
  if (2 * q) - n < f + 1 then
    flag
      (Printf.sprintf
         "quorum intersection broken: two quorums of %d among %d nodes overlap in %d <= f = %d"
         q n ((2 * q) - n) f);
  if Protocols.Quorum.one_honest n < f + 1 then
    flag (Printf.sprintf "one-honest threshold %d admits all-faulty sets (f = %d)"
            (Protocols.Quorum.one_honest n) f);
  List.rev !verdicts

let online result =
  List.map
    (fun v ->
      { oracle = "online-" ^ v.Invariant.monitor; detail = Invariant.describe_violation v })
    result.Controller.violations

let check_trace config (result : Controller.result) =
  match result.Controller.trace with
  | None -> []
  | Some trace ->
    (* Trace rows carry physical node ids; the result table is logical.
       Map before comparing so a twin half's decisions line up with the row
       its identity published. *)
    let to_logical node =
      match config.Config.twins with
      | Some tw when node >= config.Config.n ->
        Attack.Twins_schedule.logical ~n:config.Config.n tw node
      | Some _ | None -> node
    in
    let from_trace =
      List.sort compare
        (List.map (fun (node, values) -> (to_logical node, values)) (Trace.decisions trace))
    in
    let from_result =
      List.sort compare
        (List.filter (fun (_, values) -> values <> []) result.Controller.decisions)
    in
    (if from_trace <> from_result then
       [
         {
           oracle = "trace-consistency";
           detail = "decisions recorded in the trace differ from the result's decision table";
         };
       ]
     else [])
    @ agreement_over ~aligned:(aligned config result) from_trace

(* Crash-recovery oracle: a node the chaos plan restarts must rejoin the
   network instead of forking away from it.  Two obligations:

   (a) no conflicting re-commits — at every decision index the restarted
       node shares with the reference log (the longest log among aligned
       nodes), the values agree.  Catch-up re-commits the missed suffix, so
       an index-shifted or diverging log means the WAL rehydration or the
       block/state transfer replayed history wrong;
   (b) rejoin within [view_slack] views — the restarted node's final view
       must reach the aligned maximum minus the slack.  A node stuck in a
       stale view never rejoined, even if it re-decided old values. *)
let recovery ?(view_slack = 4) (config : Config.t) (result : Controller.result) =
  let restarted =
    List.sort_uniq compare (Attack.Fault_schedule.restarts config.Config.chaos)
  in
  if restarted = [] then []
  else begin
    let verdicts = ref [] in
    let flag detail = verdicts := { oracle = "recovery"; detail } :: !verdicts in
    let aligned = aligned config result in
    let reference =
      List.fold_left
        (fun acc (node, values) ->
          if not (aligned node) then acc
          else
            match acc with
            | Some (_, best) when List.length best >= List.length values -> acc
            | _ -> Some (node, values))
        None result.Controller.decisions
    in
    let max_view =
      let m = ref (-1) in
      Array.iteri
        (fun node v -> if aligned node && v > !m then m := v)
        result.Controller.final_views;
      !m
    in
    List.iter
      (fun node ->
        (match (reference, List.assoc_opt node result.Controller.decisions) with
        | Some (ref_node, ref_values), Some values ->
          List.iteri
            (fun k value ->
              match List.nth_opt ref_values k with
              | Some expected when not (String.equal expected value) ->
                flag
                  (Printf.sprintf
                     "restarted node %d committed %S at index %d where node %d committed %S" node
                     value k ref_node expected)
              | Some _ | None -> ())
            values
        | _, _ -> ());
        if max_view >= 0 && node >= 0 && node < Array.length result.Controller.final_views then begin
          let v = result.Controller.final_views.(node) in
          if v >= 0 && v < max_view - view_slack then
            flag
              (Printf.sprintf
                 "restarted node %d finished in view %d, more than %d views behind the network \
                  (view %d): it never rejoined"
                 node v view_slack max_view)
        end)
      restarted;
    List.rev !verdicts
  end

let check_result config result =
  qc_sanity ~n:config.Config.n
  @ agreement config result
  @ integrity config result
  @ validity config result
  @ recovery config result
  @ online result
  @ check_trace config result
