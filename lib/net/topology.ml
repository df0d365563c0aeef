type zones = { names : string array; assignment : int array; rtt_ms : float array array }

type t = { n : int; zones : zones option }

let fully_connected n =
  if n <= 0 then invalid_arg "Topology.fully_connected: n <= 0";
  { n; zones = None }

let n t = t.n

(* --- Geographic zones --- *)

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

(* Node [i] lives in zone [i mod zones], the round-robin replica
   placement; [rtt_ms.(a).(b)] is the RTT between zones [a] and [b] (the
   diagonal is the intra-zone RTT).  [zones_of_spec] only yields at least
   one zone and a symmetric matrix of finite, non-negative entries. *)
let of_zone_spec spec ~n =
  Result.map
    (fun (names, rtt_ms) ->
      let t = fully_connected n in
      let assignment = Array.init n (fun i -> i mod Array.length names) in
      { t with zones = Some { names; assignment; rtt_ms } })
    (zones_of_spec spec)
