(* Request key distributions (DESIGN.md §3.16).

   Each client request carries a contention key; on top of the commit
   order this models execution-layer conflicts (two requests with the same
   key cannot be applied concurrently).  The simulator only needs the key
   *stream* to be deterministic per seed — conflict accounting happens in
   the driver, which counts adjacent same-key commits.

   [Single] is the pre-keys behavior: every request gets key 0 *without
   drawing from the RNG*, so runs that never asked for keys consume the
   exact same random stream as before the feature existed. *)

open Bftsim_sim

type t =
  | Single
  | Uniform of { space : int }
  | Zipf of { s : float; space : int }

(* Key-space size when [zipf:<s>] omits one. *)
let default_space = 1024

let validate = function
  | Single -> ()
  | Uniform { space } ->
    if space <= 0 then invalid_arg "Keys: key space must be > 0"
  | Zipf { s; space } ->
    if (not (Float.is_finite s)) || s <= 0. then invalid_arg "Keys: zipf exponent must be finite and > 0";
    if space <= 0 then invalid_arg "Keys: key space must be > 0"

let uniform ~space =
  let t = Uniform { space } in
  validate t;
  t

let zipf ?(space = default_space) ~s () =
  let t = Zipf { s; space } in
  validate t;
  t

type sampler = Pass_through | Cdf of float array

(* The zipf CDF is precomputed once per run: cdf.(k) = P(key <= k), with
   P(key = k) proportional to 1/(k+1)^s.  Sampling is a binary search for
   the first index whose cdf covers a uniform draw — O(log space) per
   request, no per-request allocation. *)
let sampler = function
  | Single -> Pass_through
  | Uniform { space = 1 } | Zipf { space = 1; _ } -> Pass_through
  | Uniform { space } -> Cdf (Array.init space (fun k -> float_of_int (k + 1) /. float_of_int space))
  | Zipf { s; space } ->
    let weights = Array.init space (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0. weights in
    let cdf = Array.make space 0. in
    let acc = ref 0. in
    Array.iteri
      (fun k w ->
        acc := !acc +. w;
        cdf.(k) <- !acc /. total)
      weights;
    cdf.(space - 1) <- 1.;
    Cdf cdf

let sample sampler rng =
  match sampler with
  | Pass_through -> 0
  | Cdf cdf ->
    let u = Rng.float rng 1. in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo

let describe = function
  | Single -> "single"
  | Uniform { space } -> Printf.sprintf "uniform(%d)" space
  | Zipf { s; space } -> Printf.sprintf "zipf(s=%g,%d)" s space

let to_cli_string = function
  | Single -> "single"
  | Uniform { space } -> Printf.sprintf "uniform:%d" space
  | Zipf { s; space } ->
    if space = default_space then Printf.sprintf "zipf:%g" s else Printf.sprintf "zipf:%g,%d" s space

let of_string s =
  let invalid () = Error (Printf.sprintf "invalid key distribution %S" s) in
  let guard t = match validate t with () -> Ok t | exception Invalid_argument _ -> invalid () in
  match s with
  | "single" -> Ok Single
  | _ -> (
    match String.index_opt s ':' with
    | None -> invalid ()
    | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "uniform" -> (
        match int_of_string_opt rest with
        | Some space -> guard (Uniform { space })
        | None -> invalid ())
      | "zipf" -> (
        match String.split_on_char ',' rest with
        | [ se ] -> (
          match float_of_string_opt se with
          | Some s -> guard (Zipf { s; space = default_space })
          | None -> invalid ())
        | [ se; sp ] -> (
          match (float_of_string_opt se, int_of_string_opt sp) with
          | Some s, Some space -> guard (Zipf { s; space })
          | _ -> invalid ())
        | _ -> invalid ())
      | _ -> invalid ()))
