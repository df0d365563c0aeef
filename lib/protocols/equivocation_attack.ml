open Bftsim_net
open Bftsim_attack

let forged value = value ^ "#forged"

let pbft_equivocation ~victim =
  let attack (env : Attacker.env) (msg : Message.t) ~dst ~delay_ms =
    if msg.src <> victim then Attacker.Deliver
    else
      match msg.payload with
      | Pbft.Pre_prepare { view; slot; value } when dst mod 2 = 1 ->
        (* "Modify" = drop the original and inject a conflicting copy with
           the same delivery characteristics. *)
        env.inject ~src:victim ~dst ~delay_ms ~tag:"pre-prepare*" ~size:msg.size
          (Pbft.Pre_prepare { view; slot; value = forged value });
        Attacker.Drop
      | Pbft.New_view { view; slot; value } when dst mod 2 = 1 ->
        env.inject ~src:victim ~dst ~delay_ms ~tag:"new-view*" ~size:msg.size
          (Pbft.New_view { view; slot; value = forged value });
        Attacker.Drop
      | _ -> Attacker.Deliver
  in
  {
    Attacker.name = Printf.sprintf "pbft-equivocation(victim=%d)" victim;
    on_start = (fun env -> ignore (env.Attacker.corrupt victim));
    attack;
    on_time_event = (fun _ _ -> ());
  }
