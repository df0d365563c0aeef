open Bftsim_sim
open Bftsim_net
module Attack = Bftsim_attack
module Obs = Bftsim_obs

type Message.payload +=
  | Gossip_frame of { origin : int; gid : int; tag : string; size : int; inner : Message.payload }
  | Rc_frame of { seq : int; tag : string; size : int; inner : Message.payload }
  | Rc_ack of { seq : int }

(* One unacked reliable frame at its sender, and the state of its
   retransmission alarm: the frame built at the first send, which every
   retransmission re-sends, its attempts so far, the arming instant of its
   alarm (kept only when tracing, for the timer span) and the channel's
   resend, shared by every frame. *)
type outbound = {
  src : int;
  dst : int;
  seq : int;
  tag : string;
  size : int;
  frame : Message.payload;
  mutable attempts : int;
  mutable armed_ms : float;
  resend : outbound -> unit;
}

let sender o = o.src

let retransmit o = o.resend o

type env = {
  config : Config.t;
  network : Network.t;
  rng : Rng.t;
  now : unit -> Time.t;
  lifecycle : Lifecycle.t;
  cpus : Cost_model.cpu array;
  attack : (Message.t -> dst:int -> delay_ms:float -> Attack.Attacker.verdict) option;
  next_id : unit -> int;
  deliver_at : Message.t -> dst:int -> id:int -> float array -> unit;
  arm_retransmit : outbound -> float array -> unit;
  telemetry : Telemetry.t;
  dropped : int ref;
}

type up = Message.t -> dst:int -> unit

type stage = {
  send : src:int -> dst:int -> tag:string -> size:int -> Message.payload -> unit;
  broadcast : src:int -> include_self:bool -> tag:string -> size:int -> Message.payload -> unit;
  deliver : up -> up;
}

(* Physical fan-out: twin halves receive broadcasts independently.
   [include_self = false] excludes only the sending instance — its co-twin
   is another machine on the wire. *)
let fan_out ~pn ~src ~include_self f =
  for dst = 0 to pn - 1 do
    if include_self || dst <> src then f dst
  done

let rc_header_bytes = 16

(* An empty slot of a link's unacked frames. *)
let vacant =
  {
    src = -1;
    dst = -1;
    seq = -1;
    tag = "";
    size = 0;
    frame = Message.Blob "";
    attempts = 0;
    armed_ms = 0.;
    resend = ignore;
  }

let reliable e rng lower =
  let cfg = e.config in
  let pn = Config.physical_n cfg in
  let tel = e.telemetry in
  let tracing = Telemetry.tracer tel <> None in
  let c_retrans = Telemetry.counter tel "net.retrans" in
  let c_dup_dropped = Telemetry.counter tel "net.dup_dropped" in
  let base_ms =
    if cfg.Config.retrans_base_ms > 0. then cfg.Config.retrans_base_ms else 2. *. cfg.lambda_ms
  in
  (* Channel state models the NIC/kernel pair, not the replica process, so
     it survives [restart@] events; retransmission of unacked frames is
     exactly what bridges a receiver's downtime.  It is kept per link
     [src * pn + dst]: the next frame number, the unacked frames indexed by
     their number (a slot is cleared on ack or give-up) and the numbers
     received, one bit each, created with the link's first frame. *)
  let next_seq = Array.make (pn * pn) 0 in
  let unacked = Array.make (pn * pn) [||] in
  let received = Array.make (pn * pn) None in
  (* The alarm delay handed to [arm_retransmit]. *)
  let delay = [| 0. |] in
  (* A retransmission alarm is owned by the sending node, so crash deferral
     pauses retransmission while the sender is down. *)
  let arm o =
    let backoff = cfg.Config.retrans_backoff ** float_of_int o.attempts in
    Rng.float_into rng (0.25 *. base_ms) delay;
    delay.(0) <- (base_ms *. backoff) +. delay.(0);
    Telemetry.call_armed tel;
    if tracing then o.armed_ms <- Time.to_ms (e.now ());
    e.arm_retransmit o delay
  in
  let resend o =
    let slots = unacked.((o.src * pn) + o.dst) in
    (* A cleared slot: acked in the meantime, the channel is quiet. *)
    if slots.(o.seq) == o then
      if o.attempts >= cfg.Config.retrans_max then begin
        (* Retry budget exhausted: the channel declares the peer
           unreachable and abandons the frame. *)
        slots.(o.seq) <- vacant;
        Telemetry.gave_up tel ~src:o.src ~dst:o.dst ~tag:o.tag
      end
      else begin
        o.attempts <- o.attempts + 1;
        incr c_retrans;
        Telemetry.call_fired tel ~tag:"rc-retransmit" ~node:o.src ~armed_ms:o.armed_ms;
        lower.send ~src:o.src ~dst:o.dst ~tag:o.tag ~size:(o.size + rc_header_bytes) o.frame;
        arm o
      end
  in
  let send ~src ~dst ~tag ~size payload =
    if dst = src || dst < 0 || dst >= pn then
      (* Local deliveries cross no wire; nothing to make reliable. *)
      lower.send ~src ~dst ~tag ~size payload
    else begin
      let link = (src * pn) + dst in
      let seq = next_seq.(link) in
      next_seq.(link) <- seq + 1;
      let frame = Rc_frame { seq; tag; size; inner = payload } in
      let o = { src; dst; seq; tag; size; frame; attempts = 0; armed_ms = 0.; resend } in
      let slots = unacked.(link) in
      let slots =
        if seq < Array.length slots then slots
        else begin
          let grown = Array.make (Stdlib.max 8 (2 * seq)) vacant in
          Array.blit slots 0 grown 0 seq;
          unacked.(link) <- grown;
          grown
        end
      in
      slots.(seq) <- o;
      lower.send ~src ~dst ~tag ~size:(size + rc_header_bytes) frame;
      arm o
    end
  in
  let receive up (msg : Message.t) ~dst =
    let src = msg.Message.src in
    match msg.Message.payload with
    | Rc_frame { seq; tag; size; inner } when not (Lifecycle.absent e.lifecycle dst) ->
      (* Ack unconditionally, duplicates included: a duplicate frame
         usually means the previous ack was lost on the way back.  Acks are
         sent raw — a lost ack is repaired by the frame's retransmission. *)
      lower.send ~src:dst ~dst:src ~tag:"rc-ack" ~size:rc_header_bytes (Rc_ack { seq });
      let link = (src * pn) + dst in
      let seen =
        match received.(link) with
        | Some seen -> seen
        | None ->
          let seen = Dense_set.create () in
          received.(link) <- Some seen;
          seen
      in
      if Dense_set.mem seen seq then incr c_dup_dropped
      else begin
        Dense_set.add seen seq;
        (* The unwrapped payload is a message of its own and takes an id,
           so the ids issued after it keep their numbers. *)
        ignore (e.next_id () : int);
        up { msg with Message.tag; size; payload = inner } ~dst
      end
    | Rc_ack { seq } ->
      (* The link is (sender, receiver): the acked sender is this
         message's destination. *)
      let slots = unacked.((dst * pn) + src) in
      if seq < Array.length slots then slots.(seq) <- vacant
    | _ -> up msg ~dst
  in
  {
    send;
    (* Every frame has its own sequence number, so each recipient gets its
       own envelope. *)
    broadcast =
      (fun ~src ~include_self ~tag ~size payload ->
        fan_out ~pn ~src ~include_self (fun dst -> send ~src ~dst ~tag ~size payload));
    deliver = (fun up -> lower.deliver (receive up));
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
  let receive up (msg : Message.t) ~dst =
    match msg.Message.payload with
    | Gossip_frame { origin; gid; tag; size; inner } ->
      if not (Hashtbl.mem seen.(dst) (origin, gid)) then begin
        Hashtbl.replace seen.(dst) (origin, gid) ();
        if not (Lifecycle.absent e.lifecycle dst) then forward dst msg.Message.payload ~tag ~size;
        (* The unwrapped message takes an id, as the reliable channel's. *)
        ignore (e.next_id () : int);
        up (Message.envelope ~src:origin ~sent_at:msg.Message.sent_at ~tag ~size inner) ~dst
      end
    | _ -> up msg ~dst
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
     cache: one registry lookup per distinct tag, not per message, and a
     cache hit allocates no option. *)
  let count_tag =
    match h_size with
    | None -> fun _ -> ()
    | Some _ ->
      let cache : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
      fun tag ->
        match Hashtbl.find cache tag with
        | cell -> incr cell
        | exception Not_found ->
          let cell = counter ("net.sent." ^ tag) in
          Hashtbl.replace cache tag cell;
          incr cell
  in
  let discard counter what msg ~dst =
    incr e.dropped;
    incr counter;
    Telemetry.message tel what msg ~dst
  in
  (* The delay of the delivery being routed: [Network.sample] draws it
     here, the CPU charge, a verdict's [Delay] and the loss model's reorder
     add to it, and [deliver_at] reads it, so it is never boxed on the
     way. *)
  let cell = [| 0. |] in
  let enqueue (msg : Message.t) ~dst ~id =
    (match h_delay with
    | Some h when msg.Message.src <> dst -> (
      Obs.Metrics.observe_cell h cell;
      match h_queue with
      | Some q -> Obs.Metrics.observe_h q (Network.last_queue_ms e.network)
      | None -> ())
    | _ -> ());
    e.deliver_at msg ~dst ~id cell
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
      let base = cfg.Config.loss in
      let rng = Rng.split e.rng and state = Loss_model.state base in
      (* The verdict's reorder extra. *)
      let extra = [| 0. |] in
      let draw =
        if not windows then fun ~src ~dst -> Loss_model.draw state ~model:base rng ~src ~dst extra
        else fun ~src ~dst ->
          let model =
            Attack.Fault_schedule.loss_model plan ~base ~at_ms:(Time.to_ms (e.now ()))
          in
          Loss_model.draw state ~model rng ~src ~dst extra
      in
      let c_lost = counter "net.loss_dropped" and c_dup = counter "net.dup_created" in
      fun (msg : Message.t) ~dst ~id ->
        if msg.Message.src = dst then enqueue msg ~dst ~id
        else
          let verdict = draw ~src:msg.Message.src ~dst in
          if verdict = Loss_model.lost then discard c_lost Telemetry.Lost msg ~dst
          else begin
            let delay_ms = Array.unsafe_get cell 0 +. Array.unsafe_get extra 0 in
            Array.unsafe_set cell 0 delay_ms;
            enqueue msg ~dst ~id;
            if verdict = Loss_model.duplicated then begin
              (* A network artifact, not traffic the sender paid for: the
                 same envelope under its own message id, but no send
                 stats.  Its delay comes from [delay_ms], not from the
                 cell, which [enqueue] handed on. *)
              incr c_dup;
              Array.unsafe_set cell 0 (delay_ms +. (0.5 *. cfg.Config.lambda_ms));
              e.deliver_at msg ~dst ~id:(e.next_id ()) cell
            end
          end
    end
  in
  let sign_ms = cfg.Config.costs.Cost_model.sign_ms in
  (* WAL writes occupy the same sequential CPU as signing, so the queueing
     delay behind a persist reaches the wire even when signing is free. *)
  let charge_cpu = sign_ms > 0. || cfg.Config.wal_ms > 0. in
  (* The verdicts on a delivery, asked in order until one drops it: the
     chaos plan's (only when it has steps), as a message a down source
     never sent must not reach the attacker; the twins partition of the
     send round (only under twins; self-addressed messages always pass);
     then the attacker's, which keeps adversarial choices only. *)
  let c_twin_drops = counter "twins.round_drops" in
  let plan_verdict msg ~dst ~delay_ms =
    Attack.Fault_schedule.admit plan msg ~dst ~delay_ms ~at_ms:(Time.to_ms (e.now ()))
  in
  let round_verdict tw (msg : Message.t) ~dst ~delay_ms:_ =
    let src = msg.Message.src in
    if src <> dst && Attack.Twins_schedule.separated tw ~src ~dst ~at_ms:(Time.to_ms (e.now ()))
    then begin
      incr c_twin_drops;
      Attack.Attacker.Drop
    end
    else Attack.Attacker.Deliver
  in
  let judges =
    (if plan = [] then [] else [ plan_verdict ])
    @ (match cfg.Config.twins with Some tw -> [ round_verdict tw ] | None -> [])
    @ Option.to_list e.attack
  in
  let rec judge judges msg ~dst ~id =
    match judges with
    | [] -> transmit msg ~dst ~id
    | verdict :: rest -> (
      match verdict msg ~dst ~delay_ms:(Array.unsafe_get cell 0) with
      | Attack.Attacker.Drop -> discard c_dropped Telemetry.Dropped msg ~dst
      | Attack.Attacker.Deliver -> judge rest msg ~dst ~id
      | Attack.Attacker.Delay delay_ms ->
        Array.unsafe_set cell 0 delay_ms;
        judge rest msg ~dst ~id)
  in
  (* One delivery of [msg]: its id, delay draw and CPU charge, then the
     verdicts. *)
  let route (msg : Message.t) dst =
    let src = msg.Message.src in
    let id = e.next_id () in
    (* Mirror [Network.stats]: self-addressed messages are local
       deliveries, not wire traffic (§II-C message usage). *)
    if dst <> src then begin
      incr c_sent;
      c_bytes := !c_bytes + msg.Message.size;
      count_tag msg.Message.tag;
      match h_size with Some h -> Obs.Metrics.observe_int h msg.Message.size | None -> ()
    end;
    Network.sample e.network msg ~dst cell;
    Telemetry.message tel Telemetry.Sent msg ~dst;
    if charge_cpu then begin
      let now = Time.to_ms (e.now ()) in
      let finish = Cost_model.charge e.cpus.(src) ~now_ms:now ~cost_ms:sign_ms in
      Array.unsafe_set cell 0 (Array.unsafe_get cell 0 +. (finish -. now))
    end;
    judge judges msg ~dst ~id
  in
  (* One envelope per send or broadcast, shared by every recipient; a
     unicast is a broadcast to one. *)
  let envelope ~src ~tag ~size payload =
    Message.envelope ~src ~sent_at:(e.now ()) ~tag ~size payload
  in
  let send ~src ~dst ~tag ~size payload =
    if not (Lifecycle.absent e.lifecycle src) then route (envelope ~src ~tag ~size payload) dst
  in
  let broadcast ~src ~include_self ~tag ~size payload =
    if not (Lifecycle.absent e.lifecycle src) then
      fan_out ~pn ~src ~include_self (route (envelope ~src ~tag ~size payload))
  in
  let wire = { send; broadcast; deliver = (fun up -> up) } in
  (* A message reaching a node the chaos plan has down is lost at its
     actual arrival instant — after the loss model's reorder and duplicate
     delays, which no send-time verdict can see.  Present only when the
     plan crashes a node. *)
  let down lower =
    let receive up (msg : Message.t) ~dst =
      if Lifecycle.down e.lifecycle ~node:dst ~at_ms:(Time.to_ms (e.now ())) then
        discard c_dropped Telemetry.Lost_at_down_node msg ~dst
      else up msg ~dst
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
