type zones = { names : string array; assignment : int array; rtt_ms : float array array }

type t = { n : int; zones : zones option }

let fully_connected n =
  if n <= 0 then invalid_arg "Topology.fully_connected: n <= 0";
  { n; zones = None }

let n t = t.n

(* --- Geographic zones --- *)

let validate_zones ~n ~names ~assignment ~rtt_ms =
  let z = Array.length names in
  if z = 0 then invalid_arg "Topology.with_zones: no zones";
  if Array.length assignment <> n then invalid_arg "Topology.with_zones: assignment length mismatch";
  Array.iter
    (fun zi -> if zi < 0 || zi >= z then invalid_arg "Topology.with_zones: zone index out of range")
    assignment;
  if Array.length rtt_ms <> z then invalid_arg "Topology.with_zones: rtt matrix not z x z";
  Array.iteri
    (fun i row ->
      if Array.length row <> z then invalid_arg "Topology.with_zones: rtt matrix not square";
      Array.iteri
        (fun j v ->
          if not (Float.is_finite v) || v < 0. then
            invalid_arg "Topology.with_zones: rtt entries must be finite and >= 0";
          if Float.abs (v -. rtt_ms.(j).(i)) > 1e-9 then
            invalid_arg "Topology.with_zones: rtt matrix must be symmetric")
        row)
    rtt_ms

(* Node [i] lives in zone [assignment.(i)]; [rtt_ms.(a).(b)] is the RTT
   between zones [a] and [b] (the diagonal is the intra-zone RTT). *)
let with_zones t ~names ~assignment ~rtt_ms =
  validate_zones ~n:t.n ~names ~assignment ~rtt_ms;
  {
    t with
    zones =
      Some
        {
          names = Array.copy names;
          assignment = Array.copy assignment;
          rtt_ms = Array.map Array.copy rtt_ms;
        };
  }

let zone_count t = match t.zones with None -> 0 | Some z -> Array.length z.names

let zone_of t i = match t.zones with None -> None | Some z -> Some z.assignment.(i)

let zone_name t zi =
  match t.zones with
  | None -> invalid_arg "Topology.zone_name: topology has no zones"
  | Some z -> z.names.(zi)

let zone_rtt_ms t ~a ~b =
  match t.zones with None -> 0. | Some z -> z.rtt_ms.(z.assignment.(a)).(z.assignment.(b))

(* One-way propagation: half the zone-pair RTT.  Without zones the model
   degenerates to 0 and delays come from the sampled distribution alone;
   that case returns the literal, so the per-send call allocates no box. *)
let zone_delay_ms t ~src ~dst =
  match t.zones with None -> 0. | Some _ -> zone_rtt_ms t ~a:src ~b:dst /. 2.

(* Node [i] in zone [i mod zones]: the default replica placement. *)
let round_robin_assignment ~n ~zones =
  if zones <= 0 then invalid_arg "Topology.round_robin_assignment: zones <= 0";
  Array.init n (fun i -> i mod zones)

(* --- Named presets (approximate inter-region RTTs, ms) --- *)

let intra_rtt = 2.

let matrix_of_pairs names pairs =
  let z = Array.length names in
  let m = Array.init z (fun _ -> Array.make z intra_rtt) in
  List.iter
    (fun (i, j, rtt) ->
      m.(i).(j) <- rtt;
      m.(j).(i) <- rtt)
    pairs;
  m

let geo3_names = [| "us-east"; "eu-west"; "ap-east" |]

let geo3_rtt = matrix_of_pairs geo3_names [ (0, 1, 80.); (0, 2, 200.); (1, 2, 180.) ]

let geo5_names = [| "us-east"; "us-west"; "eu-west"; "ap-south"; "ap-east" |]

let geo5_rtt =
  matrix_of_pairs geo5_names
    [
      (0, 1, 60.);
      (0, 2, 80.);
      (0, 3, 190.);
      (0, 4, 200.);
      (1, 2, 140.);
      (1, 3, 220.);
      (1, 4, 150.);
      (2, 3, 120.);
      (2, 4, 180.);
      (3, 4, 90.);
    ]

let zones_of_spec spec =
  match spec with
  | "geo3" -> Ok (geo3_names, geo3_rtt)
  | "geo5" -> Ok (geo5_names, geo5_rtt)
  | _ -> (
    (* uniform:<zones>@<rtt_ms> — k symmetric zones with one inter-zone RTT. *)
    match String.index_opt spec ':' with
    | Some i when String.sub spec 0 i = "uniform" -> (
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      match String.index_opt rest '@' with
      | None -> Error (Printf.sprintf "invalid zone spec %S (want uniform:<zones>@<rtt_ms>)" spec)
      | Some j -> (
        let k = String.sub rest 0 j in
        let rtt = String.sub rest (j + 1) (String.length rest - j - 1) in
        match (int_of_string_opt k, float_of_string_opt rtt) with
        | Some k, Some rtt when k > 0 && Float.is_finite rtt && rtt >= 0. ->
          let names = Array.init k (Printf.sprintf "zone-%d") in
          let pairs = ref [] in
          for a = 0 to k - 1 do
            for b = a + 1 to k - 1 do
              pairs := (a, b, rtt) :: !pairs
            done
          done;
          Ok (names, matrix_of_pairs names !pairs)
        | _ -> Error (Printf.sprintf "invalid zone spec %S" spec)))
    | _ -> Error (Printf.sprintf "unknown zone spec %S (try geo3, geo5 or uniform:<k>@<rtt>)" spec))

let of_zone_spec spec ~n =
  match zones_of_spec spec with
  | Error _ as e -> e
  | Ok (names, rtt_ms) ->
    let assignment = round_robin_assignment ~n ~zones:(Array.length names) in
    Ok (with_zones (fully_connected n) ~names ~assignment ~rtt_ms)
