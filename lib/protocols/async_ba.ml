open Bftsim_net
module Sha256 = Bftsim_crypto.Sha256

type Message.payload += Aba of { round : int; phase : int; value : int }

let name = "async-ba"

let model = Protocol_intf.Asynchronous

let pipelined = false

let bottom = 2

type node = {
  mutable round : int;
  mutable phase : int;
  mutable value : int;
  mutable decided : int option;
  (* (round, phase) -> sender -> reported value.  Future-round messages are
     buffered here until the node catches up. *)
  received : (int * int, (int, int) Hashtbl.t) Hashtbl.t;
  mutable max_round_seen : int;
}

let input_bit ctx =
  match ctx.Context.input with
  | "0" -> 0
  | "1" -> 1
  | other -> Char.code (Sha256.to_raw (Sha256.digest_string other)).[0] land 1

let create ctx =
  {
    round = 1;
    phase = 1;
    value = input_bit ctx;
    decided = None;
    received = Hashtbl.create 64;
    max_round_seen = 1;
  }

let bucket t key =
  match Hashtbl.find_opt t.received key with
  | Some b -> b
  | None ->
    let b = Hashtbl.create 16 in
    Hashtbl.replace t.received key b;
    b

let counts bucket =
  let c = [| 0; 0; 0 |] in
  Hashtbl.iter (fun _sender v -> if v >= 0 && v <= 2 then c.(v) <- c.(v) + 1) bucket;
  c

(* The common coin: a shared hash oracle over the round number, identical at
   every node — the cryptographic-setup assumption that gives expected
   constant rounds. *)
let coin ctx round =
  let d = Sha256.digest_string (Printf.sprintf "coin|%d|%d" ctx.Context.seed round) in
  Char.code (Sha256.to_raw d).[0] land 1

let broadcast_phase t ctx =
  let value = if t.phase = 3 && t.value = bottom then bottom else t.value in
  Context.broadcast ctx ~tag:(Printf.sprintf "aba-r%d-p%d" t.round t.phase)
    (Aba { round = t.round; phase = t.phase; value })

(* One quorum-driven step.  Returns [true] if the node advanced, so the
   caller loops — buffered future messages may immediately unlock the next
   phase. *)
let step t ctx =
  let b = bucket t (t.round, t.phase) in
  if Hashtbl.length b < Quorum.quorum ctx.Context.n then false
  else begin
    let c = counts b in
    (match t.phase with
    | 1 ->
      (* Adopt the majority value of the first wave. *)
      if c.(0) > c.(1) then t.value <- 0 else if c.(1) > c.(0) then t.value <- 1;
      t.phase <- 2
    | 2 ->
      (* Ratify only a value seen from more than half the quorum wave. *)
      let half = Quorum.quorum ctx.Context.n / 2 in
      if c.(0) > half then t.value <- 0
      else if c.(1) > half then t.value <- 1
      else t.value <- bottom;
      t.phase <- 3
    | _ ->
      let modal, modal_count = if c.(0) >= c.(1) then (0, c.(0)) else (1, c.(1)) in
      let n = ctx.Context.n in
      if modal_count >= Quorum.supermajority n then begin
        if t.decided = None then begin
          t.decided <- Some modal;
          ctx.Context.decide (string_of_int modal)
        end;
        t.value <- modal
      end
      else if modal_count >= Quorum.one_honest n then t.value <- modal
      else t.value <- coin ctx t.round;
      t.round <- t.round + 1;
      t.phase <- 1);
    broadcast_phase t ctx;
    true
  end

let run t ctx =
  while step t ctx do
    ()
  done

let on_start t ctx = broadcast_phase t ctx

let on_message t ctx (msg : Message.t) =
  match msg.payload with
  | Aba { round; phase; value } ->
    if round >= t.round && phase >= 1 && phase <= 3 && value >= 0 && value <= 2 then begin
      let b = bucket t (round, phase) in
      if not (Hashtbl.mem b msg.src) then Hashtbl.replace b msg.src value;
      if round > t.max_round_seen then t.max_round_seen <- round;
      run t ctx
    end
  | _ -> ()

let on_timer _t _ctx _timer = ()

let current_round t = t.round

let view = current_round

let () =
  Message.register_printer (function
    | Aba { round; phase; value } -> Some (Printf.sprintf "ABA(r=%d,p=%d,v=%d)" round phase value)
    | _ -> None)

(* A restarted replica rejoins from scratch: safe for this protocol's
   message flow, though a one-shot instance that already passed its
   decision point may never re-decide. *)
let on_restart = on_start
