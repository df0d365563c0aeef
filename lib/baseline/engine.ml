open Bftsim_sim
open Bftsim_net
module Protocols = Bftsim_protocols

type result = {
  protocol : string;
  n : int;
  outcome_ok : bool;
  time_ms : float;
  packets : int;
  events : int;
  decisions : (int * string list) list;
  safety_ok : bool;
}

type event =
  | At_router of Packet.t
  | At_host of Packet.t
  | Deliver of Message.addressed
  | Node_timer of Timer.t
  | Retransmit_check of { msg_id : int; seq : int }

(* TCP-ish connection state per ordered (src, dst) pair.  The buffers are
   allocated eagerly like real socket buffers; their n^2 growth is the
   baseline's memory wall. *)
type connection = {
  mutable established : bool;
  mutable handshake_started : bool;
  mutable pending : Message.addressed list;  (** Messages queued behind the handshake. *)
  send_buffer : Bytes.t;
  recv_buffer : Bytes.t;
}

let socket_buffer_bytes = 16_384

let estimated_memory_bytes ~n = n * (n - 1) * 2 * socket_buffer_bytes

let run ?(protocol = "pbft") ?(decisions_target = 1) ?(max_time_ms = 600_000.)
    ?(bandwidth_mbps = 100.) ~n ~seed () =
  let (module P : Protocols.Protocol_intf.S) = Protocols.Registry.find_exn protocol in
  let root_rng = Rng.create (seed lxor 0x0badcafe) in
  let node_rngs = Array.init n (fun _ -> Rng.split root_rng) in
  let queue : event Event_queue.t = Event_queue.create () in
  (* Access-link propagation per node, drawn so that a two-hop path has
     mean 250 ms / stddev ~50 ms like the main simulator's default. *)
  let prop () = Rng.truncated_normal root_rng ~mu:125. ~sigma:35. ~lo:1. in
  let uplinks = Array.init n (fun _ -> Phys.make_link ~bandwidth_mbps ~propagation_ms:(prop ())) in
  let downlinks = Array.init n (fun _ -> Phys.make_link ~bandwidth_mbps ~propagation_ms:(prop ())) in
  let cpus = Array.init n (fun _ -> Phys.make_cpu ()) in
  let router_cpu = Phys.make_cpu () in
  let connections : (int * int, connection) Hashtbl.t = Hashtbl.create (n * n) in
  let connection src dst =
    match Hashtbl.find_opt connections (src, dst) with
    | Some c -> c
    | None ->
      let c =
        {
          established = false;
          handshake_started = false;
          pending = [];
          send_buffer = Bytes.create socket_buffer_bytes;
          recv_buffer = Bytes.create socket_buffer_bytes;
        }
      in
      (* Touch the buffers so the allocation is not optimized away. *)
      Bytes.set c.send_buffer 0 'x';
      Bytes.set c.recv_buffer 0 'x';
      Hashtbl.replace connections (src, dst) c;
      c
  in
  let packet_counter = ref 0 in
  let msg_counter = ref 0 in
  let timer_counter = ref 0 in
  let cancelled : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let total_packets = ref 0 in
  let unacked : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let decisions = Array.init n (fun _ -> ref []) in
  let finished = ref None in
  let reassembly : (int, int * Message.addressed) Hashtbl.t = Hashtbl.create 256 in

  let now_ms () = Time.to_ms (Event_queue.now queue) in

  let send_packet ~at_ms packet =
    incr total_packets;
    let arrival = Phys.transmit uplinks.(packet.Packet.src) ~now_ms:at_ms ~bytes:packet.size_bytes in
    Event_queue.schedule queue ~at:(Time.of_ms (Float.max arrival (now_ms ()))) (At_router packet)
  in

  let fresh_packet ~src ~dst ~payload_bytes kind =
    incr packet_counter;
    Packet.make ~id:!packet_counter ~src ~dst ~payload_bytes kind
  in

  (* BFTSim's PBFT carried batched client requests and authenticators; the
     wire representation of a protocol message is therefore far larger than
     the simulator-level size estimate.  4 KiB per message is a modest
     batch. *)
  let wire_bytes (msg : Message.addressed) = max msg.msg.size 4096 in

  let send_segments ~at_ms (msg : Message.addressed) =
    let size = wire_bytes msg in
    let total = max 1 ((size + Packet.mss - 1) / Packet.mss) in
    Hashtbl.replace reassembly msg.id (total, msg);
    for seq = 0 to total - 1 do
      let payload_bytes = min Packet.mss (size - (seq * Packet.mss)) in
      let payload_bytes = max 1 payload_bytes in
      Hashtbl.replace unacked (msg.id, seq) ();
      send_packet ~at_ms
        (fresh_packet ~src:msg.msg.src ~dst:msg.dst ~payload_bytes
           (Packet.Data { msg_id = msg.id; seq; total }));
      (* RTO bookkeeping: the sender re-checks each segment; with lossless
         links the check is always satisfied, but a real stack still pays
         for arming and servicing it. *)
      Event_queue.schedule_after queue ~delay_ms:3000. (Retransmit_check { msg_id = msg.id; seq })
    done
  in

  let transport (msg : Message.addressed) =
    (* Signing happens on the sender CPU before anything hits the wire. *)
    let signed_at = Phys.charge cpus.(msg.msg.src) ~now_ms:(now_ms ()) ~cost_ms:Phys.sign_cost_ms in
    let conn = connection msg.msg.src msg.dst in
    if conn.established then send_segments ~at_ms:signed_at msg
    else begin
      conn.pending <- msg :: conn.pending;
      if not conn.handshake_started then begin
        conn.handshake_started <- true;
        send_packet ~at_ms:signed_at (fresh_packet ~src:msg.msg.src ~dst:msg.dst ~payload_bytes:1 Packet.Syn)
      end
    end
  in

  let ctxs = Array.make n None in
  let get_ctx i = Option.get ctxs.(i) in

  let make_ctx node_id =
    {
      Protocols.Context.node_id;
      n;
      f = Protocols.Quorum.max_faulty n;
      lambda_ms = 1000.;
      seed;
      input = Printf.sprintf "v%d" node_id;
      naive_reset = Protocols.Context.Reset_on_commit;
      rng = node_rngs.(node_id);
      now = (fun () -> Event_queue.now queue);
      send_raw =
        (fun ~dst ~tag ~size payload ->
          incr msg_counter;
          let msg =
            Message.make ~id:!msg_counter ~src:node_id ~dst ~sent_at:(Event_queue.now queue) ~tag
              ~size payload
          in
          if dst = node_id then Event_queue.schedule queue ~at:(Event_queue.now queue) (Deliver msg)
          else transport msg);
      broadcast_raw =
        (fun ~include_self ~tag ~size payload ->
          for dst = 0 to n - 1 do
            if include_self || dst <> node_id then begin
              incr msg_counter;
              let msg =
                Message.make ~id:!msg_counter ~src:node_id ~dst ~sent_at:(Event_queue.now queue)
                  ~tag ~size payload
              in
              if dst = node_id then
                Event_queue.schedule queue ~at:(Event_queue.now queue) (Deliver msg)
              else transport msg
            end
          done);
      set_timer =
        (fun ~delay_ms ~tag payload ->
          incr timer_counter;
          let id = !timer_counter in
          let deadline = Time.add_ms (Event_queue.now queue) (Float.max 0. delay_ms) in
          Event_queue.schedule queue ~at:deadline
            (Node_timer { Timer.id; owner = node_id; deadline; tag; payload });
          id);
      cancel_timer = (fun id -> Hashtbl.replace cancelled id ());
      decide =
        (fun value ->
          decisions.(node_id) := value :: !(decisions.(node_id));
          if !finished = None then begin
            let all_done = ref true in
            for i = 0 to n - 1 do
              if List.length !(decisions.(i)) < decisions_target then all_done := false
            done;
            if !all_done then finished := Some (now_ms ())
          end);
      probe = (fun ~tag:_ ~detail:_ -> ());
      leader_schedule = None;
      request_proposal = (fun ~slot:_ ~width:_ ~default k -> ignore (k default : bool));
      pipeline_depth = 1;
      durable = false;
      persist = (fun ~key:_ _ -> ());
      recall = (fun ~key:_ -> None);
      on_caught_up = ignore;
    }
  in
  for i = 0 to n - 1 do
    ctxs.(i) <- Some (make_ctx i)
  done;
  let nodes = Array.init n (fun i -> P.create (get_ctx i)) in

  let handle_at_host (packet : Packet.t) =
    let dst = packet.Packet.dst in
    let processed =
      Phys.charge cpus.(dst) ~now_ms:(now_ms ()) ~cost_ms:Phys.per_packet_cost_ms
    in
    if not (Packet.verify packet) then ()
    else
      match packet.kind with
      | Packet.Syn ->
        send_packet ~at_ms:processed (fresh_packet ~src:dst ~dst:packet.src ~payload_bytes:1 Packet.Syn_ack)
      | Packet.Syn_ack ->
        (* src of the original connection receives the SYN-ACK. *)
        let conn = connection dst packet.src in
        send_packet ~at_ms:processed
          (fresh_packet ~src:dst ~dst:packet.src ~payload_bytes:1 Packet.Handshake_ack);
        conn.established <- true;
        let pending = List.rev conn.pending in
        conn.pending <- [];
        List.iter (fun msg -> send_segments ~at_ms:processed msg) pending
      | Packet.Handshake_ack -> (connection packet.src dst).established <- true
      | Packet.Ack { msg_id; seq } -> Hashtbl.remove unacked (msg_id, seq)
      | Packet.Data { msg_id; seq; total = _ } -> (
        (* Acknowledge the segment, then reassemble. *)
        send_packet ~at_ms:processed
          (fresh_packet ~src:dst ~dst:packet.src ~payload_bytes:1 (Packet.Ack { msg_id; seq }));
        match Hashtbl.find_opt reassembly msg_id with
        | None -> ()
        | Some (remaining, msg) ->
          if remaining <= 1 then begin
            Hashtbl.remove reassembly msg_id;
            (* Verify the application-level signature before delivery. *)
            let verified =
              Phys.charge cpus.(dst) ~now_ms:processed ~cost_ms:Phys.verify_cost_ms
            in
            Event_queue.schedule queue ~at:(Time.of_ms (Float.max verified (now_ms ()))) (Deliver msg)
          end
          else Hashtbl.replace reassembly msg_id (remaining - 1, msg))
  in

  let handle = function
    | At_router packet ->
      (* Store-and-forward: router charges per-packet processing, verifies
         the checksum, and forwards on the destination's downlink. *)
      let processed = Phys.charge router_cpu ~now_ms:(now_ms ()) ~cost_ms:Phys.per_packet_cost_ms in
      if Packet.verify packet then begin
        Packet.copy_at_hop packet;
        let arrival =
          Phys.transmit downlinks.(packet.Packet.dst) ~now_ms:processed ~bytes:packet.size_bytes
        in
        Event_queue.schedule queue ~at:(Time.of_ms (Float.max arrival (now_ms ()))) (At_host packet)
      end
    | At_host packet ->
      Packet.copy_at_hop packet;
      handle_at_host packet
    | Retransmit_check { msg_id; seq } -> ignore (Hashtbl.mem unacked (msg_id, seq))
    | Deliver { msg; dst; _ } -> P.on_message nodes.(dst) (get_ctx dst) msg
    | Node_timer timer ->
      if not (Hashtbl.mem cancelled timer.Timer.id) then
        P.on_timer nodes.(timer.Timer.owner) (get_ctx timer.Timer.owner) timer
  in

  Array.iteri (fun i node -> P.on_start node (get_ctx i)) nodes;
  let rec loop () =
    if !finished <> None then ()
    else
      match Event_queue.next queue with
      | None -> ()
      | Some (now, ev) ->
        if Time.to_ms now > max_time_ms then ()
        else begin
          handle ev;
          loop ()
        end
  in
  loop ();
  let decisions_list = List.init n (fun i -> (i, List.rev !(decisions.(i)))) in
  let safety_ok =
    let table = Hashtbl.create 64 in
    List.for_all
      (fun (_, values) ->
        List.for_all (fun ok -> ok)
          (List.mapi
             (fun k v ->
               match Hashtbl.find_opt table k with
               | None ->
                 Hashtbl.replace table k v;
                 true
               | Some expected -> String.equal expected v)
             values))
      decisions_list
  in
  {
    protocol;
    n;
    outcome_ok = !finished <> None;
    time_ms = (match !finished with Some t -> t | None -> Float.min (now_ms ()) max_time_ms);
    packets = !total_packets;
    events = Event_queue.popped queue;
    decisions = decisions_list;
    safety_ok;
  }

let wall_clock_of_run ?protocol ?decisions_target ~n ~seed () =
  let start = Unix.gettimeofday () in
  let result = run ?protocol ?decisions_target ~n ~seed () in
  (Unix.gettimeofday () -. start, result)
