
type t = {
  ids : int list;
  round_ms : float;
  rounds : int list list list;
  leaders : int list;
}

let count t = List.length t.ids

let physical_n ~n t = n + count t

let logical ~n t phys =
  if phys < n then phys
  else
    match List.nth_opt t.ids (phys - n) with
    | Some id -> id
    | None -> invalid_arg (Printf.sprintf "Twins_schedule.logical: physical id %d out of range" phys)

let twin_instance ~n t id =
  let rec find k = function
    | [] -> None
    | x :: rest -> if x = id then Some (n + k) else find (k + 1) rest
  in
  find 0 t.ids

let instances ~n t id =
  match twin_instance ~n t id with None -> [ id ] | Some phys -> [ id; phys ]

let end_ms t = t.round_ms *. float_of_int (List.length t.rounds)

let round_at t ~at_ms = if at_ms < 0. then 0 else int_of_float (at_ms /. t.round_ms)

(* Partition groups in effect at [at_ms]; [None] = fully connected. *)
let groups_at t ~at_ms =
  match List.nth_opt t.rounds (round_at t ~at_ms) with
  | None | Some [] -> None
  | Some groups -> Some groups

let separated t ~src ~dst ~at_ms =
  match groups_at t ~at_ms with
  | None -> false
  | Some groups -> Fault_schedule.splits groups ~src ~dst

(* Liveness is only a fair expectation when no honest identity is ever cut
   off from a quorum-weight block: a drop-round that isolates an honest
   node lets the quorum side commit blocks the isolated node will never
   receive (the engine models no state transfer), which permanently stalls
   chained protocols' commit rule on that node — the same reason
   crash-recover scenarios are exempt from liveness judgment. *)
let isolated_below_quorum ~n ~quorum t ~node =
  let pn = physical_n ~n t in
  List.exists
    (fun groups ->
      groups <> []
      &&
      let explicit = List.concat groups in
      let residual = List.filter (fun p -> not (List.mem p explicit)) (List.init pn Fun.id) in
      List.exists
        (fun block ->
          let members = List.sort_uniq compare (List.map (logical ~n t) block) in
          List.mem node members && List.length members < quorum)
        (residual :: groups))
    t.rounds

let preserves_liveness ~n ~quorum t =
  List.for_all
    (fun id -> List.mem id t.ids || not (isolated_below_quorum ~n ~quorum t ~node:id))
    (List.init n Fun.id)

let validate ~n t =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if t.ids = [] then fail "Twins: no twinned identities (omit the twins key instead)";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun id ->
      if id < 0 || id >= n then fail "Twins: twinned identity %d out of range 0..%d" id (n - 1);
      if Hashtbl.mem seen id then fail "Twins: identity %d twinned twice" id;
      Hashtbl.replace seen id ())
    t.ids;
  if Float.is_nan t.round_ms || t.round_ms <= 0. then
    fail "Twins: round_ms = %g, the schedule round duration must be positive" t.round_ms;
  let pn = physical_n ~n t in
  List.iteri
    (fun r groups ->
      let placed = Hashtbl.create 16 in
      List.iter
        (fun group ->
          List.iter
            (fun node ->
              if node < 0 || node >= pn then
                fail "Twins: round %d partitions node %d, but physical ids are 0..%d" r node
                  (pn - 1);
              if Hashtbl.mem placed node then
                fail "Twins: round %d lists node %d in two partition groups" r node;
              Hashtbl.replace placed node ())
            group)
        groups)
    t.rounds;
  List.iteri
    (fun v leader ->
      if leader < 0 || leader >= n then
        fail "Twins: leader %d for view %d out of range 0..%d (leaders are logical ids)" leader v
          (n - 1))
    t.leaders

(* --- config-file syntax ---------------------------------------------- *)

let ( let* ) = Result.bind

let ids_to_string ids = String.concat "," (List.map string_of_int ids)

let ids_of_string s =
  try
    Ok
      (List.filter_map
         (fun x -> if x = "" then None else Some (int_of_string x))
         (String.split_on_char ',' s))
  with Failure _ -> Error (Printf.sprintf "invalid twins id list %S" s)

let groups_to_string groups =
  if groups = [] then "-"
  else
    String.concat "|" (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups)

let rounds_to_string rounds = String.concat ";" (List.map groups_to_string rounds)

let groups_of_string s =
  if s = "-" || s = "" then Ok []
  else
    List.fold_left
      (fun acc group ->
        let* acc = acc in
        let* ids = ids_of_string group in
        Ok (acc @ [ ids ]))
      (Ok [])
      (String.split_on_char '|' s)

let rounds_of_string s =
  List.fold_left
    (fun acc round ->
      let* acc = acc in
      let* groups = groups_of_string (String.trim round) in
      Ok (acc @ [ groups ]))
    (Ok [])
    (String.split_on_char ';' s)

let describe t =
  Printf.sprintf "twins(%s;%d rounds x %gms%s)" (ids_to_string t.ids) (List.length t.rounds)
    t.round_ms
    (if t.leaders = [] then "" else ";leaders=" ^ ids_to_string t.leaders)
