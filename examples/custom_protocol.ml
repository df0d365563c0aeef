(* Extending the simulator (paper §III-A): a user-written protocol and a
   user-written attacker, wired in through the public API.

   The protocol below is a deliberately simple "rotating echo" consensus —
   the leader broadcasts its value, everyone echoes, a node decides on n-f
   matching echoes, and a timeout rotates the leader.  It is not Byzantine
   fault-tolerant against equivocation; the point is to show that the
   paper's claim holds here too: a complete protocol needs only
   [on_start] / [on_message] / [on_timer] plus [Context.decide], and a
   custom attacker needs only [attack] / [on_time_event].

   Run with: dune exec examples/custom_protocol.exe *)

module Core = Bftsim_core
module Net = Bftsim_net
module Attack = Bftsim_attack
module P = Bftsim_protocols

(* --- the custom protocol --- *)

type Net.Message.payload +=
  | Echo_propose of { round : int; value : string }
  | Echo of { round : int; value : string }

type Bftsim_sim.Timer.payload += Round_timeout of { round : int }

module Rotating_echo = struct
  let name = "rotating-echo"

  let model = P.Protocol_intf.Partially_synchronous

  let pipelined = false

  type node = {
    mutable round : int;
    mutable decided : bool;
    echoes : (int * string) P.Tally.t;
  }

  let create _ctx = { round = 0; decided = false; echoes = P.Tally.create () }

  let propose t ctx =
    if P.Context.is_leader_round_robin ctx ~view:t.round then
      P.Context.broadcast ctx ~tag:"echo-propose"
        (Echo_propose { round = t.round; value = ctx.P.Context.input })

  let arm_timer t ctx =
    ignore
      (ctx.P.Context.set_timer
         ~delay_ms:(3. *. ctx.P.Context.lambda_ms)
         ~tag:"round-timeout"
         (Round_timeout { round = t.round }))

  let on_start t ctx =
    arm_timer t ctx;
    propose t ctx

  let on_message t ctx (msg : Net.Message.t) =
    match msg.payload with
    | Echo_propose { round; value } ->
      if round = t.round && msg.src = P.Context.leader_round_robin ctx ~view:round then
        P.Context.broadcast ctx ~tag:"echo" (Echo { round; value })
    | Echo { round; value } ->
      let votes = P.Tally.add t.echoes (round, value) ~voter:msg.src in
      if votes >= P.Quorum.quorum ctx.P.Context.n && not t.decided then begin
        t.decided <- true;
        ctx.P.Context.decide value
      end
    | _ -> ()

  let on_timer t ctx (timer : Bftsim_sim.Timer.t) =
    match timer.payload with
    | Round_timeout { round } ->
      if round = t.round && not t.decided then begin
        t.round <- t.round + 1;
        arm_timer t ctx;
        propose t ctx
      end
    | _ -> ()

  let on_restart = on_start

  let view t = t.round
end

(* --- the custom attacker: crash whichever leader is about to propose --- *)

let leader_hunter ~budget =
  let spent = ref 0 in
  let attack (env : Attack.Attacker.env) (msg : Net.Message.t) ~dst ~delay_ms =
    (match msg.payload with
    | Echo_propose _ when !spent < budget && not (env.is_corrupted msg.src) ->
      (* Rushing: the proposal is observed in flight, and its sender is
         corrupted before any copy is delivered. *)
      if env.corrupt msg.src then incr spent
    | _ -> ());
    Attack.Attacker.drop_from_corrupted env msg ~dst ~delay_ms
  in
  {
    Attack.Attacker.name = Printf.sprintf "leader-hunter(budget=%d)" budget;
    on_start = (fun _ -> ());
    attack;
    on_time_event = (fun _ _ -> ());
  }

let () =
  (* One registration makes the protocol available to configs, the CLI and
     the sweep harness alike. *)
  P.Registry.register (module Rotating_echo);
  let config = Core.Config.make "rotating-echo" ~n:16 ~seed:5 in
  let benign = Core.Controller.run config in
  Format.printf "benign run    : %a in %.2f s, %d messages@." Core.Controller.pp_outcome
    benign.outcome (benign.time_ms /. 1000.) benign.messages_sent;
  let attacked = Core.Controller.run ~attacker:(leader_hunter ~budget:3) config in
  Format.printf "under attack  : %a in %.2f s, corrupted leaders: %s@." Core.Controller.pp_outcome
    attacked.outcome
    (attacked.time_ms /. 1000.)
    (String.concat ", " (List.map string_of_int attacked.corrupted));
  Format.printf
    "@.The attacker silenced the first %d leaders the moment they proposed;@.\
     the rotation survived them and the run still decided (%.1fx slower).@."
    3
    (attacked.time_ms /. benign.time_ms)
