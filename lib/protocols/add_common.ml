open Bftsim_sim
open Bftsim_net
module Vrf = Bftsim_crypto.Vrf

type variant = V1 | V2 | V3

type Message.payload +=
  | Add_prepare of { iter : int; value : string }
  | Add_credential of { iter : int; credential : Vrf.evaluation }
  | Add_propose of { iter : int; value : string }
  | Add_vote of { iter : int; leader : int; value : string }
  | Add_notify of { value : string }

type Timer.payload += Add_slot of { iter : int; slot : int }

(* v1: propose/vote/tally; v2, v3 add a credential window, v3 a prepare. *)
let slots_per_iteration = function V1 -> 3 | V2 -> 4 | V3 -> 5

type node = {
  variant : variant;
  mutable iter : int;
  mutable slot : int;
  mutable value : string;
  mutable decided : string option;
  voted : (int, unit) Hashtbl.t;
  (* iter -> sender -> prepared value (v3). *)
  prepares : (int, (int, string) Hashtbl.t) Hashtbl.t;
  (* iter -> sender -> proposed value (v1, v2). *)
  proposals : (int, (int, string) Hashtbl.t) Hashtbl.t;
  (* iter -> best (ticket, node) among verified credentials. *)
  best_credential : (int, int64 * int) Hashtbl.t;
  votes : (int * int * string) Tally.t;
  notifies : string Tally.t;
}

let create variant ctx =
  {
    variant;
    iter = 0;
    slot = 0;
    value = ctx.Context.input;
    decided = None;
    voted = Hashtbl.create 16;
    prepares = Hashtbl.create 16;
    proposals = Hashtbl.create 16;
    best_credential = Hashtbl.create 16;
    votes = Tally.create ();
    notifies = Tally.create ();
  }

let current_iteration t = t.iter

let delta ctx = ctx.Context.lambda_ms

let sub_table table iter =
  match Hashtbl.find_opt table iter with
  | Some sub -> sub
  | None ->
    let sub = Hashtbl.create 8 in
    Hashtbl.replace table iter sub;
    sub

let credential_input iter = Printf.sprintf "add|%d" iter

(* The leader this node currently believes in for [iter]: the round-robin
   schedule for v1, the lowest verified VRF ticket for v2/v3. *)
let perceived_leader t ctx iter =
  match t.variant with
  | V1 -> Some (Context.leader_round_robin ctx ~view:iter)
  | V2 | V3 -> (
    match Hashtbl.find_opt t.best_credential iter with
    | Some (_, node) -> Some node
    | None -> None)

let schedule_slot ctx ~iter ~slot =
  ignore (ctx.Context.set_timer ~delay_ms:(delta ctx) ~tag:"add-slot" (Add_slot { iter; slot }))

let decide t ctx value =
  if t.decided = None then begin
    t.decided <- Some value;
    t.value <- value;
    ctx.Context.decide value;
    Context.broadcast ctx ~tag:"add-notify" (Add_notify { value })
  end

(* Voting is event-driven within the iteration's voting window: a node
   votes as soon as it is in the voting slot or later AND knows the leader's
   proposal, so delays approaching the slot length (e.g. Fig. 7's
   N(1000,300) against lambda = 1000) do not silently starve the tally. *)
let vote_slot = function V1 -> 1 | V2 -> 2 | V3 -> 3

let try_vote t ctx =
  if (not (Hashtbl.mem t.voted t.iter)) && t.slot >= vote_slot t.variant then begin
    match perceived_leader t ctx t.iter with
    | None -> ()
    | Some leader -> (
      let source = match t.variant with V3 -> t.prepares | V1 | V2 -> t.proposals in
      match Hashtbl.find_opt (sub_table source t.iter) leader with
      | Some value ->
        Hashtbl.replace t.voted t.iter ();
        Context.broadcast ctx ~tag:"add-vote" (Add_vote { iter = t.iter; leader; value })
      | None -> ())
  end

(* Deciding is likewise event-driven: a quorum of identical votes decides no
   matter when the last vote lands. *)
let try_decide t ctx ~iter ~leader ~value =
  if Tally.count t.votes (iter, leader, value) >= Quorum.quorum ctx.Context.n then
    decide t ctx value

(* End of an iteration: decisions already happened event-driven; just move
   on to the next iteration. *)
let tally_and_continue t ctx =
  t.iter <- t.iter + 1;
  t.slot <- 0;
  schedule_slot ctx ~iter:t.iter ~slot:0

let run_slot t ctx ~iter ~slot =
  if iter <> t.iter then ()
  else begin
    t.slot <- slot;
    (match (t.variant, slot) with
    | V1, 0 ->
      if Context.is_leader_round_robin ctx ~view:iter then
        Context.broadcast ctx ~tag:"add-propose" (Add_propose { iter; value = t.value })
    | V1, 1 -> try_vote t ctx
    | V1, _ -> tally_and_continue t ctx
    | V2, 0 | V3, 1 ->
      let credential =
        Vrf.eval ~seed:ctx.Context.seed ~node:ctx.Context.node_id
          ~input:(credential_input iter)
      in
      Context.broadcast ctx ~tag:"add-credential" ~size:192 (Add_credential { iter; credential })
    | V3, 0 -> Context.broadcast ctx ~tag:"add-prepare" (Add_prepare { iter; value = t.value })
    | V2, 1 ->
      (* Only the node that believes itself elected proposes. *)
      if perceived_leader t ctx iter = Some ctx.Context.node_id then
        Context.broadcast ctx ~tag:"add-propose" (Add_propose { iter; value = t.value })
    | V2, 2 | V3, 3 -> try_vote t ctx
    (* v3 slot 2 is the credential-propagation window: all credentials
       (broadcast at slot 1) arrive before anyone votes, so every node
       elects the same winner. *)
    | V3, 2 -> ()
    | V2, _ | V3, _ -> tally_and_continue t ctx);
    if slot < slots_per_iteration t.variant - 1 then schedule_slot ctx ~iter ~slot:(slot + 1)
  end

let on_start t ctx = run_slot t ctx ~iter:0 ~slot:0

let on_message t ctx (msg : Message.t) =
  match msg.payload with
  | Add_prepare { iter; value } ->
    Hashtbl.replace (sub_table t.prepares iter) msg.src value;
    if iter = t.iter then try_vote t ctx
  | Add_propose { iter; value } ->
    Hashtbl.replace (sub_table t.proposals iter) msg.src value;
    if iter = t.iter then try_vote t ctx
  | Add_credential { iter; credential } ->
    if
      credential.Vrf.node = msg.src
      && Vrf.verify ~seed:ctx.Context.seed credential
      && String.equal credential.Vrf.input (credential_input iter)
    then begin
      let ticket = Vrf.ticket credential in
      match Hashtbl.find_opt t.best_credential iter with
      | Some (best, _) when Int64.compare best ticket <= 0 -> ()
      | _ -> Hashtbl.replace t.best_credential iter (ticket, msg.src)
    end
  | Add_vote { iter; leader; value } ->
    ignore (Tally.add t.votes (iter, leader, value) ~voter:msg.src);
    try_decide t ctx ~iter ~leader ~value
  | Add_notify { value } ->
    let count = Tally.add t.notifies value ~voter:msg.src in
    if count >= Quorum.one_honest ctx.Context.n then decide t ctx value
  | _ -> ()

let on_timer t ctx (timer : Timer.t) =
  match timer.payload with
  | Add_slot { iter; slot } -> run_slot t ctx ~iter ~slot
  | _ -> ()

let () =
  Message.register_printer (function
    | Add_prepare { iter; value } -> Some (Printf.sprintf "AddPrepare(i=%d,%s)" iter value)
    | Add_credential { iter; _ } -> Some (Printf.sprintf "AddCredential(i=%d)" iter)
    | Add_propose { iter; value } -> Some (Printf.sprintf "AddPropose(i=%d,%s)" iter value)
    | Add_vote { iter; leader; value } ->
      Some (Printf.sprintf "AddVote(i=%d,l=%d,%s)" iter leader value)
    | Add_notify { value } -> Some (Printf.sprintf "AddNotify(%s)" value)
    | _ -> None)
