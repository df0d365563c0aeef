open Bftsim_sim
open Bftsim_net
module Attack = Bftsim_attack
module Obs = Bftsim_obs

type Message.payload +=
  | Gossip_frame of { origin : int; gid : int; tag : string; size : int; inner : Message.payload }
  | Rc_frame of { seq : int; tag : string; size : int; inner : Message.payload }
  | Rc_ack of { seq : int }

type Timer.payload += Rc_retransmit of { dst : int; seq : int }

type env = {
  config : Config.t;
  network : Network.t;
  rng : Rng.t;
  now : unit -> Time.t;
  lifecycle : Lifecycle.t;
  cpus : Cost_model.cpu array;
  attack : Message.t -> Attack.Attacker.verdict;
  delay_override : (src:int -> dst:int -> tag:string -> seq:int -> float option) option;
  next_id : unit -> int;
  deliver_at : Message.t -> unit;
  arm_timer : owner:int -> delay_ms:float -> tag:string -> Timer.payload -> Timer.id;
  telemetry : Telemetry.t;
  dropped : int ref;
}

type stage = {
  send : src:int -> dst:int -> tag:string -> size:int -> Message.payload -> unit;
  broadcast : src:int -> include_self:bool -> tag:string -> size:int -> Message.payload -> unit;
  deliver : (Message.t -> unit) -> Message.t -> unit;
  on_timer : Timer.t -> bool;
}

(* Physical fan-out: twin halves receive broadcasts independently.
   [include_self = false] excludes only the sending instance — its co-twin
   is another machine on the wire. *)
let direct_broadcast ~pn send ~src ~include_self ~tag ~size payload =
  for dst = 0 to pn - 1 do
    if include_self || dst <> src then send ~src ~dst ~tag ~size payload
  done

(* Per-key sequence numbers from 0: the reliable channel numbers frames per
   link, replay numbers sends per (link, tag). *)
let next_seq table key =
  match Hashtbl.find_opt table key with
  | Some r ->
    incr r;
    !r
  | None ->
    Hashtbl.replace table key (ref 0);
    0

(* Sender-side bookkeeping for one unacked reliable frame. *)
type pending = { p_tag : string; p_size : int; p_inner : Message.payload; mutable attempts : int }

let rc_header_bytes = 16

let reliable e rng lower =
  let cfg = e.config in
  let pn = Config.physical_n cfg in
  let c_retrans = Telemetry.counter e.telemetry "net.retrans" in
  let c_dup_dropped = Telemetry.counter e.telemetry "net.dup_dropped" in
  let base_ms =
    if cfg.Config.retrans_base_ms > 0. then cfg.Config.retrans_base_ms else 2. *. cfg.lambda_ms
  in
  (* Channel state models the NIC/kernel pair, not the replica process, so
     it survives [restart@] events; retransmission of unacked frames is
     exactly what bridges a receiver's downtime. *)
  let seqs : (int * int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let out : (int * int * int, pending) Hashtbl.t = Hashtbl.create 256 in
  let seen : (int * int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  (* Retransmit alarms are owned by the sending node, so crash deferral
     pauses retransmission while the sender is down. *)
  let arm src ~dst ~seq ~attempt =
    let backoff = cfg.Config.retrans_backoff ** float_of_int attempt in
    let jitter = Rng.float rng (0.25 *. base_ms) in
    ignore
      (e.arm_timer ~owner:src ~delay_ms:((base_ms *. backoff) +. jitter) ~tag:"rc-retransmit"
         (Rc_retransmit { dst; seq })
        : Timer.id)
  in
  let send ~src ~dst ~tag ~size payload =
    if dst = src || dst < 0 || dst >= pn then
      (* Local deliveries cross no wire; nothing to make reliable. *)
      lower.send ~src ~dst ~tag ~size payload
    else begin
      let seq = next_seq seqs (src, dst) in
      Hashtbl.replace out (src, dst, seq)
        { p_tag = tag; p_size = size; p_inner = payload; attempts = 0 };
      lower.send ~src ~dst ~tag ~size:(size + rc_header_bytes)
        (Rc_frame { seq; tag; size; inner = payload });
      arm src ~dst ~seq ~attempt:0
    end
  in
  let receive up (msg : Message.t) =
    let src = msg.Message.src and dst = msg.Message.dst in
    match msg.Message.payload with
    | Rc_frame { seq; tag; size; inner } when not (Lifecycle.absent e.lifecycle dst) ->
      (* Ack unconditionally, duplicates included: a duplicate frame
         usually means the previous ack was lost on the way back.  Acks are
         sent raw — a lost ack is repaired by the frame's retransmission. *)
      lower.send ~src:dst ~dst:src ~tag:"rc-ack" ~size:rc_header_bytes (Rc_ack { seq });
      if Hashtbl.mem seen (src, dst, seq) then incr c_dup_dropped
      else begin
        Hashtbl.replace seen (src, dst, seq) ();
        up { msg with Message.id = e.next_id (); tag; size; payload = inner }
      end
    | Rc_ack { seq } ->
      (* The channel key is (sender, receiver): the acked sender is this
         message's destination. *)
      Hashtbl.remove out (dst, src, seq)
    | _ -> up msg
  in
  let on_timer (timer : Timer.t) =
    match timer.Timer.payload with
    | Rc_retransmit { dst; seq } ->
      let owner = timer.Timer.owner in
      (match Hashtbl.find_opt out (owner, dst, seq) with
      | None ->
        (* Acked in the meantime; the channel is quiet. *)
        Telemetry.alarm e.telemetry Telemetry.Released timer
      | Some frame when frame.attempts >= cfg.Config.retrans_max ->
        (* Retry budget exhausted: the channel declares the peer
           unreachable and abandons the frame. *)
        Hashtbl.remove out (owner, dst, seq);
        Telemetry.alarm e.telemetry Telemetry.Released timer;
        Telemetry.gave_up e.telemetry ~src:owner ~dst ~tag:frame.p_tag
      | Some frame ->
        frame.attempts <- frame.attempts + 1;
        incr c_retrans;
        Telemetry.alarm e.telemetry Telemetry.Fired timer;
        lower.send ~src:owner ~dst ~tag:frame.p_tag ~size:(frame.p_size + rc_header_bytes)
          (Rc_frame { seq; tag = frame.p_tag; size = frame.p_size; inner = frame.p_inner });
        arm owner ~dst ~seq ~attempt:frame.attempts);
      true
    | _ -> lower.on_timer timer
  in
  {
    send;
    broadcast = direct_broadcast ~pn send;
    deliver = (fun up -> lower.deliver (receive up));
    on_timer;
  }

(* Epidemic broadcast: the origin sends a [Gossip_frame] to [fanout] random
   peers; first-time receivers unwrap it for their protocol and re-forward
   it, duplicates die on arrival (their hop still counted as traffic).
   Unicast sends bypass the epidemic. *)
let gossip e rng ~fanout lower =
  let pn = Config.physical_n e.config in
  let gid = ref 0 in
  (* Per node: frames already processed, keyed (origin, gid). *)
  let seen : (int * int, unit) Hashtbl.t array = Array.init pn (fun _ -> Hashtbl.create 64) in
  let forward src frame ~tag ~size =
    let chosen = Hashtbl.create 8 in
    let attempts = ref 0 in
    while Hashtbl.length chosen < Stdlib.min fanout (pn - 1) && !attempts < 16 * pn do
      incr attempts;
      let peer = Rng.int rng pn in
      if peer <> src && not (Hashtbl.mem chosen peer) then Hashtbl.replace chosen peer ()
    done;
    Hashtbl.iter (fun peer () -> lower.send ~src ~dst:peer ~tag ~size frame) chosen
  in
  let broadcast ~src ~include_self ~tag ~size payload =
    if include_self then lower.send ~src ~dst:src ~tag ~size payload;
    incr gid;
    (* The origin has trivially "seen" its own frame. *)
    Hashtbl.replace seen.(src) (src, !gid) ();
    forward src (Gossip_frame { origin = src; gid = !gid; tag; size; inner = payload }) ~tag ~size
  in
  let receive up (msg : Message.t) =
    let dst = msg.Message.dst in
    match msg.Message.payload with
    | Gossip_frame { origin; gid; tag; size; inner } ->
      if not (Hashtbl.mem seen.(dst) (origin, gid)) then begin
        Hashtbl.replace seen.(dst) (origin, gid) ();
        if not (Lifecycle.absent e.lifecycle dst) then forward dst msg.Message.payload ~tag ~size;
        up
          (Message.make ~id:(e.next_id ()) ~src:origin ~dst ~sent_at:msg.Message.sent_at ~tag ~size
             inner)
      end
    | _ -> up msg
  in
  { lower with broadcast; deliver = (fun up -> lower.deliver (receive up)) }

(* Twins (DESIGN.md §3.14): the protocol addresses a logical identity; a
   twinned destination is two machines, each owed its own copy.  Broadcasts
   already fan out over the physical replica set. *)
let twins ~n tw lower =
  let send ~src ~dst ~tag ~size payload =
    List.iter
      (fun pdst -> lower.send ~src ~dst:pdst ~tag ~size payload)
      (Attack.Twins_schedule.instances ~n tw dst)
  in
  { lower with send }

let create e =
  let cfg = e.config in
  let pn = Config.physical_n cfg in
  (* Stage streams split off the root in a fixed order — gossip always
     (legacy position), then loss and reliable only when configured — so
     enabling a feature never shifts the streams of a run without it. *)
  let gossip_rng = Rng.split e.rng in
  let tel = e.telemetry in
  let counter = Telemetry.counter tel and histogram = Telemetry.histogram tel in
  let c_sent = counter "net.sent" and c_bytes = counter "net.bytes" in
  let c_dropped = counter "net.dropped" in
  let h_delay = histogram "net.delay_ms" in
  let h_size =
    histogram ~buckets:[| 64.; 256.; 1024.; 4096.; 16384.; 65536.; 262144. |] "net.msg.size_bytes"
  in
  (* Egress queue-delay distribution: registered only with the bandwidth
     model, so the registry of other configs is unchanged. *)
  let h_queue = if cfg.Config.bandwidth_mbps = None then None else histogram "net.queue_ms" in
  (* Per-tag send counters ride on the registry, resolved through a private
     cache: one registry lookup per distinct tag, not per message. *)
  let count_tag =
    match h_size with
    | None -> fun _ -> ()
    | Some _ ->
      let cache : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
      fun tag ->
        let cell =
          match Hashtbl.find_opt cache tag with
          | Some c -> c
          | None ->
            let c = counter ("net.sent." ^ tag) in
            Hashtbl.replace cache tag c;
            c
        in
        incr cell
  in
  let discard counter what msg =
    incr e.dropped;
    incr counter;
    Telemetry.message tel what msg
  in
  let deliver_at msg =
    Telemetry.message tel Telemetry.In_flight msg;
    e.deliver_at msg
  in
  let enqueue (msg : Message.t) =
    (match h_delay with
    | Some h when msg.Message.src <> msg.Message.dst -> (
      Obs.Metrics.observe_h h msg.Message.delay_ms;
      match h_queue with
      | Some q -> Obs.Metrics.observe_h q (Network.last_queue_ms e.network)
      | None -> ())
    | _ -> ());
    deliver_at msg
  in
  (* Stochastic per-link faults run after the adversary: the attacker models
     intent, this models the wire itself.  The chaos plan's loss and dup
     windows raise the model's probabilities while they are open.
     Self-addressed messages are local and never lossy. *)
  let plan = Lifecycle.plan e.lifecycle in
  let windows = Attack.Fault_schedule.loss_windows plan in
  let transmit =
    if Loss_model.is_none cfg.Config.loss && not windows then enqueue
    else begin
      let rng = Rng.split e.rng and state = Loss_model.state cfg.Config.loss in
      let sample =
        if not windows then Loss_model.sample state rng
        else fun ~src ~dst ->
          let model =
            Attack.Fault_schedule.loss_model plan ~base:cfg.Config.loss
              ~at_ms:(Time.to_ms (e.now ()))
          in
          Loss_model.sample ~model state rng ~src ~dst
      in
      let c_lost = counter "net.loss_dropped" and c_dup = counter "net.dup_created" in
      fun (msg : Message.t) ->
        if msg.Message.src = msg.Message.dst then enqueue msg
        else
          let v = sample ~src:msg.Message.src ~dst:msg.Message.dst in
          if not v.Loss_model.deliver then discard c_lost Telemetry.Lost msg
          else begin
            msg.Message.delay_ms <- msg.Message.delay_ms +. v.Loss_model.reorder_extra_ms;
            enqueue msg;
            if v.Loss_model.duplicate then begin
              (* A network artifact, not traffic the sender paid for: its
                 own message id but no send stats. *)
              incr c_dup;
              deliver_at
                {
                  msg with
                  Message.id = e.next_id ();
                  delay_ms = msg.Message.delay_ms +. (0.5 *. cfg.Config.lambda_ms);
                }
            end
          end
    end
  in
  (* Replay support: per-link send counters feeding the override. *)
  let link_seqs : (int * int * string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let sign_ms = cfg.Config.costs.Cost_model.sign_ms in
  (* WAL writes occupy the same sequential CPU as signing, so the queueing
     delay behind a persist reaches the wire even when signing is free. *)
  let charge_cpu = sign_ms > 0. || cfg.Config.wal_ms > 0. in
  let chaos = plan <> [] in
  (* The twins partition schedule rules after the chaos plan and before
     the attacker, which keeps adversarial choices only: a message crossing
     the round's partition (by send time) is dropped; self-addressed
     messages always pass. *)
  let c_twin_drops = counter "twins.round_drops" in
  let attack =
    match cfg.Config.twins with
    | None -> e.attack
    | Some tw ->
      fun (msg : Message.t) ->
        if
          msg.Message.src <> msg.Message.dst
          && Attack.Twins_schedule.separated tw ~src:msg.Message.src ~dst:msg.Message.dst
               ~at_ms:(Time.to_ms (e.now ()))
        then begin
          incr c_twin_drops;
          Attack.Attacker.Drop
        end
        else e.attack msg
  in
  let send ~src ~dst ~tag ~size payload =
    if not (Lifecycle.absent e.lifecycle src) then begin
      let id = e.next_id () in
      (* Mirror [Network.stats]: self-addressed messages are local
         deliveries, not wire traffic (§II-C message usage). *)
      if dst <> src then begin
        incr c_sent;
        c_bytes := !c_bytes + size;
        count_tag tag;
        match h_size with Some h -> Obs.Metrics.observe_h h (float_of_int size) | None -> ()
      end;
      let msg = Message.make ~id ~src ~dst ~sent_at:(e.now ()) ~tag ~size payload in
      Network.assign_delay e.network msg;
      (* The recorded delay is end-to-end (sample + CPU + chaos spike +
         attacker), so in replay mode it is applied last, after the plan's
         and the attacker's verdicts and draws; the link sequence advances
         for every send, dropped or not. *)
      let replay_delay =
        match e.delay_override with
        | None -> None
        | Some override -> override ~src ~dst ~tag ~seq:(next_seq link_seqs (src, dst, tag))
      in
      Telemetry.message tel Telemetry.Sent msg;
      if charge_cpu then begin
        let now = Time.to_ms (e.now ()) in
        let finish = Cost_model.charge e.cpus.(src) ~now_ms:now ~cost_ms:sign_ms in
        msg.Message.delay_ms <- msg.Message.delay_ms +. (finish -. now)
      end;
      (* The chaos plan rules first: a message a down source never sent must
         not reach the attacker. *)
      if chaos && not (Attack.Fault_schedule.admit plan msg ~at_ms:(Time.to_ms (e.now ()))) then
        discard c_dropped Telemetry.Dropped msg
      else
        match attack msg with
        | Attack.Attacker.Drop -> discard c_dropped Telemetry.Dropped msg
        | Attack.Attacker.Deliver ->
          (match replay_delay with Some d -> msg.Message.delay_ms <- d | None -> ());
          transmit msg
    end
  in
  let wire =
    {
      send;
      broadcast = direct_broadcast ~pn send;
      deliver = (fun up -> up);
      on_timer = (fun _ -> false);
    }
  in
  (* A message reaching a node the chaos plan has down is lost at its
     actual arrival instant — after the loss model's reorder and duplicate
     delays, which no send-time verdict can see.  Present only when the
     plan crashes a node. *)
  let down lower =
    let receive up (msg : Message.t) =
      if Lifecycle.down e.lifecycle ~node:msg.Message.dst ~at_ms:(Time.to_ms (e.now ())) then
        discard c_dropped Telemetry.Lost_at_down_node msg
      else up msg
    in
    { lower with deliver = (fun up -> lower.deliver (receive up)) }
  in
  let layers =
    (if Lifecycle.crashes e.lifecycle then [ down ] else [])
    @ (if cfg.Config.reliable then [ reliable e (Rng.split e.rng) ] else [])
    @ (match cfg.Config.transport with
      | Config.Gossip { fanout } -> [ gossip e gossip_rng ~fanout ]
      | Config.Direct -> [])
    @ match cfg.Config.twins with Some tw -> [ twins ~n:cfg.Config.n tw ] | None -> []
  in
  List.fold_left (fun below layer -> layer below) wire layers
