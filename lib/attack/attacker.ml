open Bftsim_sim
open Bftsim_net

type verdict = Deliver | Drop

type env = {
  n : int;
  f : int;
  lambda_ms : float;
  now : unit -> Time.t;
  rng : Rng.t;
  topology : Topology.t;
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
  attack : env -> Message.t -> verdict;
  on_time_event : env -> Timer.t -> unit;
}

let passthrough =
  {
    name = "passthrough";
    on_start = (fun _ -> ());
    attack = (fun _ _ -> Deliver);
    on_time_event = (fun _ _ -> ());
  }

let drop_from_corrupted env (msg : Message.t) =
  if env.is_corrupted msg.src then Drop else Deliver

let delay_all ~extra_ms =
  {
    name = Printf.sprintf "delay-all(+%gms)" extra_ms;
    on_start = (fun _ -> ());
    attack =
      (fun _ msg ->
        msg.Message.delay_ms <- msg.Message.delay_ms +. extra_ms;
        Deliver);
    on_time_event = (fun _ _ -> ());
  }
