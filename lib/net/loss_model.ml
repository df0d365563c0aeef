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

(* Per-link Gilbert–Elliott chains, keyed by (src, dst) and created lazily
   on first traffic so link count never affects the RNG stream of links
   that carry no messages. *)
type state = { model : t; links : (int * int, bool ref) Hashtbl.t }

let state model = { model; links = Hashtbl.create 64 }

type verdict = { deliver : bool; duplicate : bool; reorder_extra_ms : float }

(* Draw order is part of the determinism contract: burst-state transition,
   then drop, then (if delivered) duplication, then reordering.  Changing it
   changes every lossy fingerprint. *)
let sample ?model st rng ~src ~dst =
  let model = match model with Some m -> m | None -> st.model in
  let dropped =
    let burst_dropped =
      match model.burst with
      | None -> false
      | Some b ->
          let bad =
            match Hashtbl.find_opt st.links (src, dst) with
            | Some r -> r
            | None ->
                let r = ref false in
                Hashtbl.add st.links (src, dst) r;
                r
          in
          let flip = Bftsim_sim.Rng.float rng 1. in
          (if !bad then (if flip < b.p_bg then bad := false)
           else if flip < b.p_gb then bad := true);
          !bad && Bftsim_sim.Rng.float rng 1. < b.p_bad
    in
    burst_dropped
    || (model.drop > 0. && Bftsim_sim.Rng.float rng 1. < model.drop)
  in
  if dropped then { deliver = false; duplicate = false; reorder_extra_ms = 0. }
  else
    let duplicate =
      model.dup > 0. && Bftsim_sim.Rng.float rng 1. < model.dup
    in
    let reorder_extra_ms =
      if model.reorder_ms > 0. then Bftsim_sim.Rng.float rng model.reorder_ms
      else 0.
    in
    { deliver = true; duplicate; reorder_extra_ms }
