type report = {
  decisions_match : bool;
  trace_match : bool option;
  divergence : string option;
}

let same_decisions (a : Controller.result) (b : Controller.result) =
  let clean r =
    List.filter (fun (_, values) -> values <> []) r.Controller.decisions
  in
  clean a = clean b

let decisions_divergence (a : Controller.result) (b : Controller.result) =
  (* The decision table is keyed by logical identity, and under a twins
     configuration a twinned identity appears once per physical half — so a
     key is NOT unique.  Group the value sequences per identity (in table
     order, which is deterministic physical order) instead of letting a
     last-write-wins table attribute one half's log to a phantom replica. *)
  let to_table r =
    let t : (int, string list list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (node, values) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt t node) in
        Hashtbl.replace t node (prev @ [ values ]))
      r.Controller.decisions;
    t
  in
  let ta = to_table a and tb = to_table b in
  (* Compare over the union of nodes: a node that decided only in the
     replayed run (absent from the ground-truth table) is a divergence
     too, so iterating a single table would miss it. *)
  let nodes = Hashtbl.create 16 in
  Hashtbl.iter (fun node _ -> Hashtbl.replace nodes node ()) ta;
  Hashtbl.iter (fun node _ -> Hashtbl.replace nodes node ()) tb;
  let sorted = List.sort compare (Hashtbl.fold (fun node () acc -> node :: acc) nodes []) in
  let show halves =
    String.concat " / " (List.map (fun vs -> "[" ^ String.concat "; " vs ^ "]") halves)
  in
  List.fold_left
    (fun diff node ->
      match diff with
      | Some _ -> diff
      | None ->
        let va = Option.value ~default:[] (Hashtbl.find_opt ta node) in
        let vb = Option.value ~default:[] (Hashtbl.find_opt tb node) in
        if va <> vb then Some (Printf.sprintf "node %d decided %s vs %s" node (show va) (show vb))
        else None)
    None sorted

let trace_divergence a b =
  match Trace.first_divergence a b with
  | None -> None
  | Some (i, x, y) ->
    let show = function
      | None -> "<end of trace>"
      | Some e -> Format.asprintf "%a" Trace.pp_entry e
    in
    Some (Printf.sprintf "trace entry %d: %s vs %s" i (show x) (show y))

let make_report ground replayed =
  let decisions_match = same_decisions ground replayed in
  let trace_match, trace_diff =
    match (ground.Controller.trace, replayed.Controller.trace) with
    | Some ta, Some tb ->
      let d = trace_divergence ta tb in
      (Some (d = None), d)
    | _ -> (None, None)
  in
  let divergence =
    if decisions_match then trace_diff else decisions_divergence ground replayed
  in
  { decisions_match; trace_match; divergence }

let validate_against ~ground_truth config =
  let trace =
    match ground_truth.Controller.trace with
    | Some t -> t
    | None -> invalid_arg "Validator.validate_against: ground truth has no trace"
  in
  (* A constant delay model: a delivery the override missed arrives at
     another time, so a replay that matches took every delay from the
     recording. *)
  let replayed =
    Controller.run ~delay_override:(Trace.delay trace)
      { config with Config.record_trace = true; delay = Bftsim_net.Delay_model.Constant 1. }
  in
  make_report ground_truth replayed

let check_determinism config =
  let config = { config with Config.record_trace = true } in
  let a = Controller.run config in
  let b = Controller.run config in
  make_report a b

let pp_report ppf r =
  Format.fprintf ppf "decisions %s, trace %s%s"
    (if r.decisions_match then "match" else "DIFFER")
    (match r.trace_match with None -> "n/a" | Some true -> "match" | Some false -> "DIFFER")
    (match r.divergence with None -> "" | Some d -> "; first divergence: " ^ d)
