open Bftsim_sim

type stats = { sent : int; bytes : int; queued : int; queue_ms_total : float }

type t = {
  mutable delay : Delay_model.t;
  topology : Topology.t;
  rng : Rng.t;
  bandwidth_mbps : float option;
  link_busy_until : float array;  (* per-source egress link, FIFO *)
  mutable last_queue_ms : float;
  scratch : float array;  (* [assign_delay]'s cell *)
  mutable sent : int;
  mutable bytes : int;
  mutable queued : int;
  mutable queue_ms_total : float;
}

let create ?bandwidth_mbps ~delay ~topology ~rng () =
  (match bandwidth_mbps with
  | Some b when (not (Float.is_finite b)) || b <= 0. ->
    invalid_arg "Network.create: bandwidth_mbps must be finite and > 0"
  | _ -> ());
  {
    delay;
    topology;
    rng;
    bandwidth_mbps;
    link_busy_until = Array.make (Topology.n topology) 0.;
    last_queue_ms = 0.;
    scratch = [| 0. |];
    sent = 0;
    bytes = 0;
    queued = 0;
    queue_ms_total = 0.;
  }

let sample t (msg : Message.t) ~dst cell =
  let src = msg.src in
  if src = dst then begin
    Array.unsafe_set cell 0 0.;
    t.last_queue_ms <- 0.
  end
  else begin
    Delay_model.sample t.delay t.rng cell;
    let propagation = Array.unsafe_get cell 0 +. Topology.zone_delay_ms t.topology ~src ~dst in
    let transport =
      match t.bandwidth_mbps with
      | None ->
        t.last_queue_ms <- 0.;
        0.
      | Some mbps ->
        (* The sender's egress link is a FIFO server: a message must wait
           for everything ahead of it, then occupies the link for its
           serialization time (bytes -> ms at [mbps]). *)
        let now = Time.to_ms msg.sent_at in
        let serialization = float_of_int msg.size *. 0.008 /. mbps in
        let start = Float.max now t.link_busy_until.(src) in
        t.link_busy_until.(src) <- start +. serialization;
        let wait = start -. now in
        if wait > 0. then begin
          t.queued <- t.queued + 1;
          t.queue_ms_total <- t.queue_ms_total +. wait
        end;
        t.last_queue_ms <- wait;
        wait +. serialization
    in
    Array.unsafe_set cell 0 (transport +. propagation);
    (* Self-addressed messages are local deliveries, not wire traffic, so
       only cross-node messages count toward message usage (§II-C). *)
    t.sent <- t.sent + 1;
    t.bytes <- t.bytes + msg.size
  end

let assign_delay t (a : Message.addressed) =
  sample t a.msg ~dst:a.dst t.scratch;
  a.delay_ms <- t.scratch.(0)

let last_queue_ms t = t.last_queue_ms

let override_delay t delay = t.delay <- delay

let stats t = { sent = t.sent; bytes = t.bytes; queued = t.queued; queue_ms_total = t.queue_ms_total }

let reset_stats t =
  t.sent <- 0;
  t.bytes <- 0;
  t.queued <- 0;
  t.queue_ms_total <- 0.
