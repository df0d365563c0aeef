open Bftsim_sim
open Bftsim_net

type mode = Drop_cross_traffic | Delay_until_heal of { jitter_ms : float }

type spec = { groups : int array; start_ms : float; heal_ms : float; mode : mode }

let make spec =
  if spec.heal_ms < spec.start_ms then invalid_arg "Partition_attack.make: heal before start";
  let crosses ~src ~dst = src <> dst && spec.groups.(src) <> spec.groups.(dst) in
  let active now = now >= spec.start_ms && now < spec.heal_ms in
  let attack (env : Attacker.env) (msg : Message.t) ~dst ~delay_ms =
    let now = Time.to_ms (env.now ()) in
    if not (active now && crosses ~src:msg.src ~dst) then Attacker.Deliver
    else
      match spec.mode with
      | Drop_cross_traffic -> Attacker.Drop
      | Delay_until_heal { jitter_ms } ->
        let release =
          spec.heal_ms +. (if jitter_ms > 0. then Rng.float env.rng jitter_ms else 0.)
        in
        (* Stretch the delay so arrival lands just after the heal. *)
        Attacker.Delay (Float.max delay_ms (release -. Time.to_ms msg.sent_at))
  in
  {
    Attacker.name =
      Printf.sprintf "partition[%g,%g)%s" spec.start_ms spec.heal_ms
        (match spec.mode with Drop_cross_traffic -> "-drop" | Delay_until_heal _ -> "-delay");
    on_start = (fun _ -> ());
    attack;
    on_time_event = (fun _ _ -> ());
  }

let two_subnets ~n ~first_size ~start_ms ~heal_ms mode =
  if first_size < 0 || first_size > n then invalid_arg "Partition_attack.two_subnets";
  let groups = Array.init n (fun i -> if i < first_size then 0 else 1) in
  make { groups; start_ms; heal_ms; mode }
