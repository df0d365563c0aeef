open Bftsim_sim
open Bftsim_net

type Message.payload +=
  | Tm_proposal of { height : int; round : int; value : string }
  | Tm_prevote of { height : int; round : int; value : string }
  | Tm_precommit of { height : int; round : int; value : string }

type Timer.payload += Tm_timeout of { height : int; round : int; step : int }

let name = "tendermint"

let model = Protocol_intf.Partially_synchronous

let pipelined = false

let nil = ""

(* Round timeouts grow linearly (Tendermint's documented choice), not
   exponentially: timeout(r) = lambda * (1 + r/2). *)
let timeout_ms ctx round =
  ctx.Context.lambda_ms *. (1. +. (float_of_int round /. 2.))

type step = Propose | Prevote | Precommit

type node = {
  mutable height : int;
  mutable round : int;
  mutable step : step;
  mutable locked_value : string;  (** [nil] when unlocked. *)
  mutable locked_round : int;
  mutable decided_heights : int;
  (* (height, round) -> proposal value. *)
  proposals : (int * int, string) Hashtbl.t;
  prevotes : (int * int * string) Tally.t;
  prevote_totals : (int * int) Tally.t;
  precommits : (int * int * string) Tally.t;
  precommit_totals : (int * int) Tally.t;
  sent_prevote : (int * int, string) Hashtbl.t;
  sent_precommit : (int * int, string) Hashtbl.t;
  decided : (int, string) Hashtbl.t;
  mutable wait_armed : (int * int * step) option;
}

let create _ctx =
  {
    height = 1;
    round = 0;
    step = Propose;
    locked_value = nil;
    locked_round = -1;
    decided_heights = 0;
    proposals = Hashtbl.create 64;
    prevotes = Tally.create ();
    prevote_totals = Tally.create ();
    precommits = Tally.create ();
    precommit_totals = Tally.create ();
    sent_prevote = Hashtbl.create 64;
    sent_precommit = Hashtbl.create 64;
    decided = Hashtbl.create 64;
    wait_armed = None;
  }

let view t = t.height

let proposer ctx ~height ~round = (height + round) mod ctx.Context.n

let proposal_value ctx ~height = Printf.sprintf "%s/h%d" ctx.Context.input height

let set_timeout t ctx ~step_idx ~delay_ms =
  ignore
    (ctx.Context.set_timer ~delay_ms ~tag:"tm-timeout"
       (Tm_timeout { height = t.height; round = t.round; step = step_idx }))

let broadcast_prevote t ctx value =
  if not (Hashtbl.mem t.sent_prevote (t.height, t.round)) then begin
    Hashtbl.replace t.sent_prevote (t.height, t.round) value;
    t.step <- Prevote;
    Context.broadcast ctx ~tag:"tm-prevote"
      (Tm_prevote { height = t.height; round = t.round; value })
  end

let broadcast_precommit t ctx value =
  if not (Hashtbl.mem t.sent_precommit (t.height, t.round)) then begin
    Hashtbl.replace t.sent_precommit (t.height, t.round) value;
    t.step <- Precommit;
    Context.broadcast ctx ~tag:"tm-precommit"
      (Tm_precommit { height = t.height; round = t.round; value })
  end

(* Prevote the proposal if our lock allows it: unlocked, same value, or the
   proposal carries a newer proof-of-lock (simplified: lock from an older
   round yields to the current proposal only if values match). *)
let prevote_on_proposal t ctx value =
  let acceptable = t.locked_value = nil || String.equal t.locked_value value in
  broadcast_prevote t ctx (if acceptable then value else nil)

let rec start_round t ctx round =
  t.round <- round;
  t.step <- Propose;
  t.wait_armed <- None;
  if proposer ctx ~height:t.height ~round = ctx.Context.node_id then begin
    if t.locked_value <> nil then
      (* Locked: re-proposing the locked value is a safety obligation, the
         workload never substitutes it. *)
      Context.broadcast ctx ~tag:"tm-proposal" ~size:256
        (Tm_proposal { height = t.height; round; value = t.locked_value })
    else begin
      let height = t.height in
      let default = { Context.value = proposal_value ctx ~height; size = 256 } in
      ctx.Context.request_proposal ~slot:height ~width:ctx.Context.pipeline_depth ~default
        (fun (p : Context.proposal) ->
          (* A deferred batch fires only if this (height, round) is still in
             its propose step and we are still unlocked; otherwise the
             workload re-queues it. *)
          if
            t.height = height && t.round = round && t.step = Propose && t.locked_value = nil
            && proposer ctx ~height ~round = ctx.Context.node_id
            && not (Hashtbl.mem t.proposals (height, round))
          then begin
            Context.broadcast ctx ~tag:"tm-proposal" ~size:p.Context.size
              (Tm_proposal { height; round; value = p.Context.value });
            true
          end
          else false)
    end
  end;
  (* If the proposal is already buffered (we were behind), act on it now. *)
  (match Hashtbl.find_opt t.proposals (t.height, t.round) with
  | Some value -> prevote_on_proposal t ctx value
  | None -> set_timeout t ctx ~step_idx:0 ~delay_ms:(timeout_ms ctx round));
  (* Watchdog: if the round stalls (e.g. votes lost to a partition),
     re-broadcast our votes so quorums can eventually form. *)
  set_timeout t ctx ~step_idx:3 ~delay_ms:(2.5 *. timeout_ms ctx round);
  check_quorums t ctx

and advance_height t ctx value =
  if not (Hashtbl.mem t.decided t.height) then begin
    Hashtbl.replace t.decided t.height value;
    t.decided_heights <- t.decided_heights + 1;
    ctx.Context.decide value;
    t.height <- t.height + 1;
    t.locked_value <- nil;
    t.locked_round <- -1;
    start_round t ctx 0
  end

(* Quorum-driven transitions; called on every relevant arrival so late
   messages still unblock the round. *)
and check_quorums t ctx =
  let n = ctx.Context.n in
  let h = t.height and r = t.round in
  (* Prevote quorum for a value: lock and precommit it. *)
  (match
     List.find_opt
       (fun (hh, rr, v) ->
         hh = h && rr = r && (not (String.equal v nil))
         && Tally.count t.prevotes (hh, rr, v) >= Quorum.quorum n)
       (Tally.keys t.prevotes)
   with
  | Some (_, _, v) when t.step <> Propose ->
    t.locked_value <- v;
    t.locked_round <- r;
    broadcast_precommit t ctx v
  | _ -> ());
  (* 2f+1 prevotes without a value quorum: give stragglers half a lambda,
     then precommit nil. *)
  if
    t.step = Prevote
    && Tally.count t.prevote_totals (h, r) >= Quorum.quorum n
    && t.wait_armed <> Some (h, r, Prevote)
    && not (Hashtbl.mem t.sent_precommit (h, r))
  then begin
    t.wait_armed <- Some (h, r, Prevote);
    set_timeout t ctx ~step_idx:1 ~delay_ms:(ctx.Context.lambda_ms /. 2.)
  end;
  (* Precommit quorum for a value: decide, at any step of any round. *)
  (match
     List.find_opt
       (fun (hh, rr, v) ->
         hh = h
         && (not (String.equal v nil))
         && Tally.count t.precommits (hh, rr, v) >= Quorum.quorum n)
       (Tally.keys t.precommits)
   with
  | Some (_, _, v) -> advance_height t ctx v
  | None ->
    (* 2f+1 precommits without a decision: wait briefly, then next round. *)
    if
      t.step = Precommit
      && Tally.count t.precommit_totals (h, r) >= Quorum.quorum n
      && t.wait_armed <> Some (h, r, Precommit)
    then begin
      t.wait_armed <- Some (h, r, Precommit);
      set_timeout t ctx ~step_idx:2 ~delay_ms:(ctx.Context.lambda_ms /. 2.)
    end)

let on_start t ctx = start_round t ctx 0

let on_message t ctx (msg : Message.t) =
  match msg.payload with
  | Tm_proposal { height; round; value } ->
    if msg.src = proposer ctx ~height ~round && not (Hashtbl.mem t.proposals (height, round)) then begin
      Hashtbl.replace t.proposals (height, round) value;
      if height = t.height && round = t.round && t.step = Propose then
        prevote_on_proposal t ctx value;
      check_quorums t ctx
    end
  | Tm_prevote { height; round; value } ->
    ignore (Tally.add t.prevotes (height, round, value) ~voter:msg.src);
    ignore (Tally.add t.prevote_totals (height, round) ~voter:msg.src);
    if height = t.height then check_quorums t ctx
  | Tm_precommit { height; round; value } ->
    ignore (Tally.add t.precommits (height, round, value) ~voter:msg.src);
    ignore (Tally.add t.precommit_totals (height, round) ~voter:msg.src);
    if height = t.height then check_quorums t ctx
  | _ -> ()

let on_timer t ctx (timer : Timer.t) =
  match timer.payload with
  | Tm_timeout { height; round; step } ->
    if height = t.height && round = t.round then begin
      match step with
      | 0 ->
        (* Propose timeout: no proposal seen, prevote nil. *)
        if t.step = Propose then begin
          broadcast_prevote t ctx nil;
          check_quorums t ctx
        end
      | 1 ->
        (* Prevote-wait expired without a value quorum: precommit nil. *)
        if t.step = Prevote then begin
          broadcast_precommit t ctx nil;
          check_quorums t ctx
        end
      | 2 ->
        (* Precommit-wait expired without a decision: next round. *)
        if t.step = Precommit then start_round t ctx (t.round + 1)
      | _ ->
        (* Watchdog: re-broadcast whatever we already voted and re-arm. *)
        (match Hashtbl.find_opt t.sent_prevote (height, round) with
        | Some value ->
          Context.broadcast ctx ~tag:"tm-prevote" (Tm_prevote { height; round; value })
        | None -> ());
        (match Hashtbl.find_opt t.sent_precommit (height, round) with
        | Some value ->
          Context.broadcast ctx ~tag:"tm-precommit" (Tm_precommit { height; round; value })
        | None -> ());
        set_timeout t ctx ~step_idx:3 ~delay_ms:(2.5 *. timeout_ms ctx round)
    end
  | _ -> ()

let () =
  Message.register_printer (function
    | Tm_proposal { height; round; value } ->
      Some (Printf.sprintf "TmProposal(h=%d,r=%d,%s)" height round value)
    | Tm_prevote { height; round; value } ->
      Some
        (Printf.sprintf "TmPrevote(h=%d,r=%d,%s)" height round (if value = nil then "nil" else value))
    | Tm_precommit { height; round; value } ->
      Some
        (Printf.sprintf "TmPrecommit(h=%d,r=%d,%s)" height round
           (if value = nil then "nil" else value))
    | _ -> None)

(* A restarted replica rejoins from scratch: safe for this protocol's
   message flow, though a one-shot instance that already passed its
   decision point may never re-decide. *)
let on_restart = on_start
