(* Per-link stochastic network faults: independent drop, duplication, a
   bounded reordering window, and Gilbert–Elliott burst loss.  The model is
   pure configuration plus a [state] value that owns the per-link
   Gilbert–Elliott chains; every random draw comes from the RNG the caller
   threads in, so the whole model inherits the simulator's determinism. *)

type burst = { p_gb : float; p_bg : float; p_bad : float }

type t = { drop : float; dup : float; reorder_ms : float; burst : burst option }

let none = { drop = 0.; dup = 0.; reorder_ms = 0.; burst = None }

let is_none t =
  t.drop = 0. && t.dup = 0. && t.reorder_ms = 0. && t.burst = None

let make ?(drop = 0.) ?(dup = 0.) ?(reorder_ms = 0.) ?burst () =
  { drop; dup; reorder_ms; burst }

let check_prob what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg
      (Printf.sprintf "%s must be a probability in [0, 1], got %g" what p)

let validate t =
  check_prob "loss (drop probability)" t.drop;
  check_prob "dup (duplication probability)" t.dup;
  if not (t.reorder_ms >= 0.) then
    invalid_arg
      (Printf.sprintf "reorder window must be >= 0 ms, got %g" t.reorder_ms);
  match t.burst with
  | None -> ()
  | Some b ->
      check_prob "burst_loss good->bad transition" b.p_gb;
      check_prob "burst_loss bad->good transition" b.p_bg;
      check_prob "burst_loss bad-state drop probability" b.p_bad

(* "p_gb,p_bg,p_bad" — e.g. "0.01,0.2,0.8": enter the bad state with
   probability 0.01 per message, leave it with 0.2, drop 80% while bad. *)
let burst_of_string s =
  match String.split_on_char ',' (String.trim s) with
  | [ a; b; c ] -> (
      try
        let p_gb = float_of_string (String.trim a) in
        let p_bg = float_of_string (String.trim b) in
        let p_bad = float_of_string (String.trim c) in
        { p_gb; p_bg; p_bad }
      with _ ->
        invalid_arg
          (Printf.sprintf
             "burst_loss %S: expected three floats \"p_gb,p_bg,p_bad\"" s))
  | _ ->
      invalid_arg
        (Printf.sprintf "burst_loss %S: expected \"p_gb,p_bg,p_bad\"" s)

let burst_to_string b =
  String.concat "," (List.map Bftsim_sim.Float_text.to_string [ b.p_gb; b.p_bg; b.p_bad ])

let describe t =
  if is_none t then "lossless"
  else
    String.concat " "
      (List.filter
         (fun s -> s <> "")
         [
           (if t.drop > 0. then Printf.sprintf "loss=%g" t.drop else "");
           (if t.dup > 0. then Printf.sprintf "dup=%g" t.dup else "");
           (if t.reorder_ms > 0. then Printf.sprintf "reorder=%gms" t.reorder_ms
            else "");
           (match t.burst with
           | Some b -> Printf.sprintf "burst=%g,%g,%g" b.p_gb b.p_bg b.p_bad
           | None -> "");
         ])

(* Per-link Gilbert–Elliott chains: a link is in the bad state when its
   bit is set.  A link that has carried no message reads as good, as a
   chain created on first traffic does, so the link count never affects
   the RNG stream of links that carry no messages. *)
type state = { model : t; bad : Bftsim_sim.Dense_set.t }

let state model = { model; bad = Bftsim_sim.Dense_set.create () }

(* Cantor pairing: one small index per (src, dst) link. *)
let link ~src ~dst =
  let s = src + dst in
  (s * (s + 1) / 2) + dst

let lost = 0

let delivered = 1

let duplicated = 2

(* Draw order is part of the determinism contract: burst-state transition,
   then drop, then (if delivered) duplication, then reordering.  Changing it
   changes every lossy fingerprint.  Every draw is compared or written in
   place, so a verdict allocates nothing. *)
let draw st ~model rng ~src ~dst extra =
  let module Rng = Bftsim_sim.Rng in
  let module Dense_set = Bftsim_sim.Dense_set in
  let burst_dropped =
    match model.burst with
    | None -> false
    | Some b ->
      (* [b]'s fields are unboxed, as in any all-float record, and passing
         one to [Rng.chance] would box it: the uniform goes into [extra]
         and is compared here. *)
      let key = link ~src ~dst in
      Rng.float_into rng 1. extra;
      let bad =
        if Dense_set.mem st.bad key then
          if extra.(0) < b.p_bg then begin
            Dense_set.remove st.bad key;
            false
          end
          else true
        else if extra.(0) < b.p_gb then begin
          Dense_set.add st.bad key;
          true
        end
        else false
      in
      bad
      && begin
           Rng.float_into rng 1. extra;
           extra.(0) < b.p_bad
         end
  in
  if burst_dropped || (model.drop > 0. && Rng.chance rng model.drop) then begin
    extra.(0) <- 0.;
    lost
  end
  else begin
    let duplicate = model.dup > 0. && Rng.chance rng model.dup in
    if model.reorder_ms > 0. then Rng.float_into rng model.reorder_ms extra else extra.(0) <- 0.;
    if duplicate then duplicated else delivered
  end

type verdict = { deliver : bool; duplicate : bool; reorder_extra_ms : float }

let sample ?model st rng ~src ~dst =
  let model = match model with Some m -> m | None -> st.model in
  let extra = [| 0. |] in
  let code = draw st ~model rng ~src ~dst extra in
  { deliver = code <> lost; duplicate = code = duplicated; reorder_extra_ms = extra.(0) }
