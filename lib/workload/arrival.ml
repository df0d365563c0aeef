(* Open-loop client arrival processes (DESIGN.md §3.16).

   Open-loop means clients submit at their own pace regardless of how the
   system keeps up — the model that exposes a saturation knee, unlike
   closed-loop clients whose offered load collapses with latency.  Each
   process is a pure description; [next_gap_ms] samples the time to the
   next arrival from the process, the current simulation time and the
   harness RNG, so the arrival stream is deterministic per seed. *)

open Bftsim_sim

type t =
  | Constant of { rate : float }
  | Poisson of { rate : float }
  | On_off of { rate : float; on_ms : float; off_ms : float }

let validate = function
  | Constant { rate } | Poisson { rate } ->
    if (not (Float.is_finite rate)) || rate <= 0. then
      invalid_arg "Arrival: rate must be finite and > 0"
  | On_off { rate; on_ms; off_ms } ->
    if (not (Float.is_finite rate)) || rate <= 0. then
      invalid_arg "Arrival: rate must be finite and > 0";
    if (not (Float.is_finite on_ms)) || on_ms <= 0. then
      invalid_arg "Arrival: on window must be finite and > 0";
    if (not (Float.is_finite off_ms)) || off_ms < 0. then
      invalid_arg "Arrival: off window must be finite and >= 0"

let constant ~rate =
  let t = Constant { rate } in
  validate t;
  t

let poisson ~rate =
  let t = Poisson { rate } in
  validate t;
  t

let on_off ~rate ~on_ms ~off_ms =
  let t = On_off { rate; on_ms; off_ms } in
  validate t;
  t

let with_rate t rate =
  if (not (Float.is_finite rate)) || rate <= 0. then
    invalid_arg "Arrival.with_rate: rate must be finite and > 0";
  match t with
  | Constant _ -> Constant { rate }
  | Poisson _ -> Poisson { rate }
  | On_off o -> On_off { o with rate }

let mean_rate = function
  | Constant { rate } | Poisson { rate } -> rate
  | On_off { rate; on_ms; off_ms } -> rate *. on_ms /. (on_ms +. off_ms)

(* During an on/off burst the gap is drawn over *on-time* only: walk
   forward from [now_ms], skipping off windows, until the drawn amount of
   on-time has elapsed.  Phase is absolute (cycle-aligned to t=0), so every
   client agrees on when bursts happen. *)
let skip_off_windows ~on_ms ~off_ms ~now_ms gap_on_time =
  let cycle = on_ms +. off_ms in
  let rec go at remaining =
    let p = Float.rem at cycle in
    if p >= on_ms then go (at +. (cycle -. p)) remaining
    else
      let available = on_ms -. p in
      if remaining <= available then at +. remaining else go (at +. available) (remaining -. available)
  in
  go now_ms gap_on_time -. now_ms

let next_gap_into t ~now_ms rng cell =
  match t with
  | Constant { rate } -> cell.(0) <- 1000. /. rate
  | Poisson { rate } ->
    cell.(0) <- 1000. /. rate;
    Rng.exponential_into rng cell
  | On_off { rate; on_ms; off_ms } ->
    cell.(0) <- 1000. /. rate;
    Rng.exponential_into rng cell;
    cell.(0) <- skip_off_windows ~on_ms ~off_ms ~now_ms cell.(0)

let next_gap_ms t ~now_ms rng =
  let cell = [| 0. |] in
  next_gap_into t ~now_ms rng cell;
  cell.(0)

let describe = function
  | Constant { rate } -> Printf.sprintf "constant(%g/s)" rate
  | Poisson { rate } -> Printf.sprintf "Poisson(%g/s)" rate
  | On_off { rate; on_ms; off_ms } -> Printf.sprintf "on/off(%g/s,%g|%g)" rate on_ms off_ms

let to_cli_string = function
  | Constant { rate } -> Printf.sprintf "constant:%g" rate
  | Poisson { rate } -> Printf.sprintf "poisson:%g" rate
  | On_off { rate; on_ms; off_ms } -> Printf.sprintf "onoff:%g,%g,%g" rate on_ms off_ms

let parse_floats s =
  try Some (List.map float_of_string (String.split_on_char ',' s)) with Failure _ -> None

let of_string s =
  let invalid () = Error (Printf.sprintf "invalid arrival process %S" s) in
  let guard t = match validate t with () -> Ok t | exception Invalid_argument _ -> invalid () in
  match String.index_opt s ':' with
  | None -> invalid ()
  | Some i -> (
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match kind with
    | "constant" | "const" -> (
      match parse_floats rest with Some [ rate ] -> guard (Constant { rate }) | _ -> invalid ())
    | "poisson" -> (
      match parse_floats rest with Some [ rate ] -> guard (Poisson { rate }) | _ -> invalid ())
    | "onoff" | "burst" -> (
      match parse_floats rest with
      | Some [ rate; on_ms; off_ms ] -> guard (On_off { rate; on_ms; off_ms })
      | _ -> invalid ())
    | _ -> invalid ())
