open Bftsim_sim
open Bftsim_net

type action =
  | Crash of int
  | Recover of int
  | Restart of int
  | Partition of int list list
  | Heal
  | Loss_burst of { p : float; until_ms : float }
  | Dup_burst of { p : float; until_ms : float }
  | Delay_spike of { extra_ms : float; until_ms : float }
  | Gst_shift of Delay_model.t

type step = { at_ms : float; action : action }

type t = step list

let empty = []

let normalize t = List.stable_sort (fun a b -> Float.compare a.at_ms b.at_ms) t

let num = Float_text.to_string

let describe_action = function
  | Crash node -> Printf.sprintf "crash:%d" node
  | Recover node -> Printf.sprintf "recover:%d" node
  | Restart node -> Printf.sprintf "restart:%d" node
  | Partition groups ->
    Printf.sprintf "partition:%s"
      (String.concat "|"
         (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups))
  | Heal -> "heal"
  | Loss_burst { p; _ } -> "loss:" ^ num p
  | Dup_burst { p; _ } -> "dup:" ^ num p
  | Delay_spike { extra_ms; _ } -> "spike:" ^ num extra_ms
  | Gst_shift model -> Printf.sprintf "gst:%s" (Delay_model.to_cli_string model)

let describe_step s =
  match s.action with
  | Loss_burst { until_ms; _ } | Dup_burst { until_ms; _ } | Delay_spike { until_ms; _ } ->
    Printf.sprintf "%s@%s-%s" (describe_action s.action) (num s.at_ms) (num until_ms)
  | _ -> Printf.sprintf "%s@%s" (describe_action s.action) (num s.at_ms)

let describe t = String.concat ";" (List.map describe_step (normalize t))

let validate ~n t =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let check_node what node =
    if node < 0 || node >= n then
      fail "Fault_schedule: %s of node %d, but nodes are 0..%d" what node (n - 1)
  in
  let check_prob what p =
    if Float.is_nan p || p < 0. || p > 1. then
      fail "Fault_schedule: %s probability %g outside [0, 1]" what p
  in
  List.iter
    (fun s ->
      if Float.is_nan s.at_ms || s.at_ms < 0. || s.at_ms = Float.infinity then
        fail "Fault_schedule: step %S at invalid time %g" (describe_action s.action) s.at_ms;
      let check_window what until_ms =
        if Float.is_nan until_ms || until_ms < s.at_ms then
          fail "Fault_schedule: %s window ends at %g before it starts at %g" what until_ms s.at_ms
      in
      match s.action with
      | Crash node -> check_node "crash" node
      | Recover node -> check_node "recovery" node
      | Restart node -> check_node "restart" node
      | Partition groups ->
        let seen = Hashtbl.create 16 in
        List.iter
          (fun group ->
            List.iter
              (fun node ->
                check_node "partition" node;
                if Hashtbl.mem seen node then
                  fail "Fault_schedule: node %d appears in two partition groups" node;
                Hashtbl.replace seen node ())
              group)
          groups
      | Heal -> ()
      | Loss_burst { p; until_ms } ->
        check_prob "loss" p;
        check_window "loss" until_ms
      | Dup_burst { p; until_ms } ->
        check_prob "dup" p;
        check_window "dup" until_ms
      | Delay_spike { extra_ms; until_ms } ->
        if Float.is_nan extra_ms || extra_ms < 0. then
          fail "Fault_schedule: negative delay spike %g" extra_ms;
        check_window "spike" until_ms
      | Gst_shift _ -> ())
    t;
  (* Crash windows on the same node must not overlap: a [Crash] while the
     node is already down (or a [Recover] while it is up) is a silent no-op
     schedule — almost always a typo in the node id or the time. *)
  let down = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match s.action with
      | Crash node ->
        if Hashtbl.mem down node then
          fail
            "Fault_schedule: crash of node %d at %g overlaps an earlier crash window (recover it first)"
            node s.at_ms;
        Hashtbl.replace down node ()
      | Recover node ->
        if not (Hashtbl.mem down node) then
          fail "Fault_schedule: recovery of node %d at %g without a preceding crash" node s.at_ms;
        Hashtbl.remove down node
      | Restart node ->
        if not (Hashtbl.mem down node) then
          fail
            "Fault_schedule: restart of node %d at %g without a preceding crash (restart = recover with volatile state lost)"
            node s.at_ms;
        Hashtbl.remove down node
      | _ -> ())
    (normalize t)

let crash_and_recover ~nodes ~crash_ms ~recover_ms =
  List.map (fun node -> { at_ms = crash_ms; action = Crash node }) nodes
  @ List.map (fun node -> { at_ms = recover_ms; action = Recover node }) nodes

let crash_and_restart ~nodes ~crash_ms ~restart_ms =
  List.map (fun node -> { at_ms = crash_ms; action = Crash node }) nodes
  @ List.map (fun node -> { at_ms = restart_ms; action = Restart node }) nodes

let restarts t =
  List.filter_map (fun s -> match s.action with Restart node -> Some node | _ -> None) t

(* The evaluators fold over the normalized plan, so the last step at or
   before the query time wins — callers pass normalized schedules (the
   run's lifecycle normalizes once up front). *)

let crashed_at t ~node ~at_ms =
  List.fold_left
    (fun down s ->
      if s.at_ms > at_ms then down
      else
        match s.action with
        | Crash m when m = node -> true
        | Recover m when m = node -> false
        | Restart m when m = node -> false
        | _ -> down)
    false t

let ever_crashed t ~node =
  List.exists (fun s -> match s.action with Crash m -> m = node | _ -> false) t

let next_recovery_after t ~node ~at_ms =
  List.fold_left
    (fun acc s ->
      match s.action with
      | (Recover m | Restart m) when m = node && s.at_ms > at_ms -> (
        match acc with Some best when best <= s.at_ms -> acc | _ -> Some s.at_ms)
      | _ -> acc)
    None t

let active_groups t ~at_ms =
  List.fold_left
    (fun acc s ->
      if s.at_ms > at_ms then acc
      else match s.action with Partition groups -> Some groups | Heal -> None | _ -> acc)
    None t

(* Unlisted nodes share the implicit residual group (-1). *)
let splits groups ~src ~dst =
  let side node =
    let rec find k = function
      | [] -> -1
      | group :: rest -> if List.mem node group then k else find (k + 1) rest
    in
    find 0 groups
  in
  side src <> side dst

let separated t ~src ~dst ~at_ms =
  match active_groups t ~at_ms with None -> false | Some groups -> splits groups ~src ~dst

let step_times t = List.sort Float.compare (List.map (fun s -> s.at_ms) t)

let admit t (msg : Message.t) ~dst ~delay_ms ~at_ms : Attacker.verdict =
  let src = msg.Message.src in
  if crashed_at t ~node:src ~at_ms then Drop
  else if src = dst then
    (* Self-addressed messages are local deliveries: they cross no wire,
       so partitions and network bursts cannot touch them. *)
    Deliver
  else if separated t ~src ~dst ~at_ms then Drop
  else
    let spiked =
      List.fold_left
        (fun d s ->
          match s.action with
          | Delay_spike { extra_ms; until_ms } when s.at_ms <= at_ms && at_ms < until_ms ->
            d +. extra_ms
          | _ -> d)
        delay_ms t
    in
    if spiked = delay_ms then Deliver else Delay spiked

let loss_windows t =
  List.exists (fun s -> match s.action with Loss_burst _ | Dup_burst _ -> true | _ -> false) t

(* 1 - (1 - a)(1 - b), written so that [either 0. b = b] exactly. *)
let either a b = a +. b -. (a *. b)

let loss_model t ~base ~at_ms =
  List.fold_left
    (fun (m : Loss_model.t) s ->
      match s.action with
      | Loss_burst { p; until_ms } when s.at_ms <= at_ms && at_ms < until_ms ->
        { m with Loss_model.drop = either m.Loss_model.drop p }
      | Dup_burst { p; until_ms } when s.at_ms <= at_ms && at_ms < until_ms ->
        { m with Loss_model.dup = either m.Loss_model.dup p }
      | _ -> m)
    base t

let ( let* ) = Result.bind

let parse_float what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "invalid %s %S" what s)

let parse_int what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "invalid %s %S" what s)

let parse_window what s =
  match String.index_opt s '-' with
  | None -> Error (Printf.sprintf "invalid %s window %S (expected <from>-<until>)" what s)
  | Some i ->
    let* from_ms = parse_float (what ^ " start") (String.sub s 0 i) in
    let* until_ms = parse_float (what ^ " end") (String.sub s (i + 1) (String.length s - i - 1)) in
    Ok (from_ms, until_ms)

let parse_step s =
  (* The time always follows the LAST '@' — gst delay models may themselves
     contain '@' (e.g. bounded:normal:250,50@1000). *)
  match String.rindex_opt s '@' with
  | None -> Error (Printf.sprintf "invalid chaos step %S (expected action@time)" s)
  | Some i -> (
    let head = String.sub s 0 i and time = String.sub s (i + 1) (String.length s - i - 1) in
    let kind, rest =
      match String.index_opt head ':' with
      | None -> (head, "")
      | Some j -> (String.sub head 0 j, String.sub head (j + 1) (String.length head - j - 1))
    in
    let timed action =
      let* at_ms = parse_float "chaos time" time in
      Ok { at_ms; action }
    in
    let windowed what make =
      let* at_ms, until_ms = parse_window what time in
      Ok { at_ms; action = make ~until_ms }
    in
    match kind with
    | "crash" ->
      let* node = parse_int "crash node" rest in
      timed (Crash node)
    | "recover" ->
      let* node = parse_int "recovery node" rest in
      timed (Recover node)
    | "restart" ->
      let* node = parse_int "restart node" rest in
      timed (Restart node)
    | "partition" ->
      let* groups =
        List.fold_left
          (fun acc group ->
            let* acc = acc in
            let* ids =
              List.fold_left
                (fun acc id ->
                  let* acc = acc in
                  if id = "" then Ok acc
                  else
                    let* id = parse_int "partition node" id in
                    Ok (id :: acc))
                (Ok []) (String.split_on_char ',' group)
            in
            Ok (List.rev ids :: acc))
          (Ok [])
          (String.split_on_char '|' rest)
      in
      timed (Partition (List.rev groups))
    | "heal" -> timed Heal
    | "loss" ->
      let* p = parse_float "loss probability" rest in
      windowed "loss" (fun ~until_ms -> Loss_burst { p; until_ms })
    | "dup" ->
      let* p = parse_float "dup probability" rest in
      windowed "dup" (fun ~until_ms -> Dup_burst { p; until_ms })
    | "spike" ->
      let* extra_ms = parse_float "spike delay" rest in
      windowed "spike" (fun ~until_ms -> Delay_spike { extra_ms; until_ms })
    | "gst" ->
      let* model = Delay_model.of_string rest in
      timed (Gst_shift model)
    | _ -> Error (Printf.sprintf "unknown chaos action %S" kind))

let of_string s =
  let* steps =
    List.fold_left
      (fun acc step ->
        let* acc = acc in
        let step = String.trim step in
        if step = "" then Ok acc
        else
          let* step = parse_step step in
          Ok (step :: acc))
      (Ok [])
      (String.split_on_char ';' s)
  in
  Ok (normalize (List.rev steps))
