open Bftsim_sim
open Bftsim_net

type verdict = Deliver | Drop | Delay of float

type env = {
  n : int;
  f : int;
  lambda_ms : float;
  now : unit -> Time.t;
  rng : Rng.t;
  set_timer : delay_ms:float -> tag:string -> Timer.payload -> Timer.id;
  inject :
    src:int -> dst:int -> delay_ms:float -> tag:string -> size:int -> Message.payload -> unit;
  corrupt : int -> bool;
  is_corrupted : int -> bool;
  corrupted : unit -> int list;
}

type t = {
  name : string;
  on_start : env -> unit;
  attack : env -> Message.t -> dst:int -> delay_ms:float -> verdict;
  on_time_event : env -> Timer.t -> unit;
}

let passthrough =
  {
    name = "passthrough";
    on_start = (fun _ -> ());
    attack = (fun _ _ ~dst:_ ~delay_ms:_ -> Deliver);
    on_time_event = (fun _ _ -> ());
  }

let drop_from_corrupted env (msg : Message.t) ~dst:_ ~delay_ms:_ =
  if env.is_corrupted msg.src then Drop else Deliver

let delay_all ~extra_ms =
  {
    name = Printf.sprintf "delay-all(+%gms)" extra_ms;
    on_start = (fun _ -> ());
    attack = (fun _ _ ~dst:_ ~delay_ms -> Delay (delay_ms +. extra_ms));
    on_time_event = (fun _ _ -> ());
  }
