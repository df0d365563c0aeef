open Bftsim_sim
open Bftsim_net

let silence ~nodes ~at_ms =
  let victims = Hashtbl.create 8 in
  List.iter (fun node -> Hashtbl.replace victims node ()) nodes;
  let attack (env : Attacker.env) (msg : Message.t) ~dst:_ ~delay_ms:_ =
    if Time.to_ms (env.now ()) >= at_ms && Hashtbl.mem victims msg.src then Attacker.Drop
    else Attacker.Deliver
  in
  {
    Attacker.name = Printf.sprintf "failstop[%d nodes@%gms]" (List.length nodes) at_ms;
    on_start = (fun _ -> ());
    attack;
    on_time_event = (fun _ _ -> ());
  }

let from_start ~nodes = silence ~nodes ~at_ms:0.

let at_time ~nodes ~at_ms = silence ~nodes ~at_ms
