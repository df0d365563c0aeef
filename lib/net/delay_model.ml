open Bftsim_sim

type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Normal of { mu : float; sigma : float }
  | Exponential of { mean : float }
  | Poisson of { mean : float }
  | LogNormal of { mu : float; sigma : float }
  | Bounded of { base : t; bound : float }

let rec sample t rng cell =
  match t with
  | Constant ms -> cell.(0) <- Float.max 0. ms
  | Uniform { lo; hi } -> cell.(0) <- Rng.uniform rng ~lo ~hi
  | Normal { mu; sigma } -> Rng.truncated_normal_into rng ~mu ~sigma ~lo:0. cell
  | Exponential { mean } -> cell.(0) <- Rng.exponential rng ~mean
  | Poisson { mean } -> cell.(0) <- float_of_int (Rng.poisson rng ~mean)
  | LogNormal { mu; sigma } -> cell.(0) <- Float.exp (Rng.normal rng ~mu ~sigma)
  | Bounded { base; bound } ->
    sample base rng cell;
    cell.(0) <- Float.min bound cell.(0)

let rec upper_bound = function
  | Constant ms -> Some ms
  | Uniform { hi; _ } -> Some hi
  | Normal _ | Exponential _ | Poisson _ | LogNormal _ -> None
  | Bounded { base; bound } -> (
    match upper_bound base with Some b -> Some (Float.min b bound) | None -> Some bound)

let mean = function
  | Constant ms -> ms
  | Uniform { lo; hi } -> (lo +. hi) /. 2.
  | Normal { mu; _ } -> mu
  | Exponential { mean = m } -> m
  | Poisson { mean = m } -> m
  | LogNormal { mu; sigma } -> Float.exp (mu +. (sigma *. sigma /. 2.))
  | Bounded _ as t ->
    (* E[min(X, bound)] has no closed form for an arbitrary base:
       min(mean base, bound) overstates the clipped mean (clipping moves
       the whole upper tail down to [bound], not just the part above the
       mean).  Estimate it numerically from a fixed-seed stream so the
       result stays a pure function of the model. *)
    let rng = Rng.create 0x7ac1de5 and cell = [| 0. |] in
    let k = 4096 in
    let acc = ref 0. in
    for _ = 1 to k do
      sample t rng cell;
      acc := !acc +. cell.(0)
    done;
    !acc /. float_of_int k

let normal ~mu ~sigma = Normal { mu; sigma }

let bounded base ~bound = Bounded { base; bound }

let log_normal ~mu ~sigma = LogNormal { mu; sigma }

let rec describe = function
  | Constant ms -> Printf.sprintf "const(%g)" ms
  | Uniform { lo; hi } -> Printf.sprintf "U(%g,%g)" lo hi
  | Normal { mu; sigma } -> Printf.sprintf "N(%g,%g)" mu sigma
  | Exponential { mean } -> Printf.sprintf "Exp(%g)" mean
  | Poisson { mean } -> Printf.sprintf "Poisson(%g)" mean
  | LogNormal { mu; sigma } -> Printf.sprintf "LogN(%g,%g)" mu sigma
  | Bounded { base; bound } -> Printf.sprintf "%s|%g" (describe base) bound

let rec to_cli_string =
  let g = Float_text.to_string in
  function
  | Constant ms -> "constant:" ^ g ms
  | Uniform { lo; hi } -> Printf.sprintf "uniform:%s,%s" (g lo) (g hi)
  | Normal { mu; sigma } -> Printf.sprintf "normal:%s,%s" (g mu) (g sigma)
  | Exponential { mean } -> "exp:" ^ g mean
  | Poisson { mean } -> "poisson:" ^ g mean
  | LogNormal { mu; sigma } -> Printf.sprintf "lognormal:%s,%s" (g mu) (g sigma)
  | Bounded { base; bound } -> Printf.sprintf "bounded:%s@%s" (to_cli_string base) (g bound)

let parse_floats s =
  try Some (List.map float_of_string (String.split_on_char ',' s)) with Failure _ -> None

let rec of_string s =
  let invalid () = Error (Printf.sprintf "invalid delay model %S" s) in
  match String.index_opt s ':' with
  | None -> invalid ()
  | Some i -> (
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match kind with
    | "constant" | "const" -> (
      match parse_floats rest with Some [ ms ] -> Ok (Constant ms) | _ -> invalid ())
    | "uniform" -> (
      match parse_floats rest with
      | Some [ lo; hi ] when lo <= hi -> Ok (Uniform { lo; hi })
      | _ -> invalid ())
    | "normal" -> (
      match parse_floats rest with
      | Some [ mu; sigma ] -> Ok (Normal { mu; sigma })
      | _ -> invalid ())
    | "exp" | "exponential" -> (
      match parse_floats rest with Some [ mean ] -> Ok (Exponential { mean }) | _ -> invalid ())
    | "poisson" -> (
      match parse_floats rest with Some [ mean ] -> Ok (Poisson { mean }) | _ -> invalid ())
    | "lognormal" | "logn" -> (
      match parse_floats rest with
      | Some [ mu; sigma ] -> Ok (LogNormal { mu; sigma })
      | _ -> invalid ())
    | "bounded" -> (
      match String.rindex_opt rest '@' with
      | None -> invalid ()
      | Some j -> (
        let inner = String.sub rest 0 j in
        let bound = String.sub rest (j + 1) (String.length rest - j - 1) in
        match (of_string inner, float_of_string_opt bound) with
        | Ok base, Some bound -> Ok (Bounded { base; bound })
        | _ -> invalid ()))
    | _ -> invalid ())
