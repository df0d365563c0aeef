open Bftsim_sim
open Bftsim_net
open Bftsim_attack
module Vrf = Bftsim_crypto.Vrf

type Timer.payload += Corrupt_winner of { iter : int }

let static ~f =
  {
    Attacker.name = Printf.sprintf "add-static(f=%d)" f;
    on_start =
      (fun env ->
        (* Fix the victims before the protocol starts: exactly v1's first f
           round-robin leaders. *)
        for node = 0 to f - 1 do
          ignore (env.Attacker.corrupt node)
        done);
    attack = Attacker.drop_from_corrupted;
    on_time_event = (fun _ _ -> ());
  }

let rushing_adaptive ?budget () =
  (* Lowest ticket seen so far per iteration, learned by observing the
     in-flight credentials (rushing capability). *)
  let best : (int, int64 * int) Hashtbl.t = Hashtbl.create 16 in
  let armed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let spent = ref 0 in
  let attack (env : Attacker.env) (msg : Message.t) ~dst ~delay_ms =
    match Attacker.drop_from_corrupted env msg ~dst ~delay_ms with
    | Attacker.Drop -> Attacker.Drop
    | Attacker.Deliver | Attacker.Delay _ ->
      (match msg.payload with
      | Add_common.Add_credential { iter; credential } when credential.Vrf.node = msg.src ->
        let ticket = Vrf.ticket credential in
        (match Hashtbl.find_opt best iter with
        | Some (b, _) when Int64.compare b ticket <= 0 -> ()
        | _ -> Hashtbl.replace best iter (ticket, msg.src));
        if not (Hashtbl.mem armed iter) then begin
          Hashtbl.replace armed iter ();
          (* All credentials of an iteration are broadcast at the same slot
             boundary, so by 0.9 lambda later the winner is known and its
             proposal (sent at the next boundary) is not yet out. *)
          ignore
            (env.Attacker.set_timer
               ~delay_ms:(0.9 *. env.Attacker.lambda_ms)
               ~tag:"corrupt-winner" (Corrupt_winner { iter }))
        end
      | _ -> ());
      Attacker.Deliver
  in
  let on_time_event (env : Attacker.env) (timer : Timer.t) =
    match timer.Timer.payload with
    | Corrupt_winner { iter } -> (
      let budget = match budget with Some b -> b | None -> env.Attacker.f in
      match Hashtbl.find_opt best iter with
      | Some (_, winner) when !spent < budget ->
        if env.Attacker.corrupt winner then incr spent
      | Some _ | None -> ())
    | _ -> ()
  in
  { Attacker.name = "add-rushing-adaptive"; on_start = (fun _ -> ()); attack; on_time_event }
