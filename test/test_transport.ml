(* Model test for the reliable-channel stage (DESIGN.md §3.17).  The stage
   runs over a fake wire that holds every frame and ack in flight; a
   generated script decides each copy's fate — lost, delivered, or
   delivered and kept in flight as a duplicate — in any order, and fires
   retransmission alarms in any order.  After the script the wire turns
   perfect and everything drains.  Whatever the pattern:

   - no payload is unwrapped twice;
   - a payload whose retry budget was not exhausted is unwrapped exactly
     once;
   - no frame is sent more than [1 + retrans_max] times;
   - once the wire is perfect, a frame that reaches its receiver is acked
     before its sender could abandon it;
   - every alarm the channel consumed closed its timer span. *)

open Bftsim_sim
open Bftsim_net
module Core = Bftsim_core
module Transport = Core.Transport

let retrans_max = 3

let nodes = 3

type op =
  | Send of int * int  (** src, dst *)
  | Lose of int  (** an in-flight copy, by index *)
  | Arrive of int
  | Duplicate of int  (** arrives and stays in flight *)
  | Fire of int  (** a pending alarm, by index *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map2
            (fun src off -> Send (src, (src + 1 + off) mod nodes))
            (int_range 0 (nodes - 1))
            (int_range 0 (nodes - 2)) );
        (2, map (fun i -> Lose i) nat);
        (3, map (fun i -> Arrive i) nat);
        (1, map (fun i -> Duplicate i) nat);
        (2, map (fun i -> Fire i) nat);
      ])

let show = function
  | Send (s, d) -> Printf.sprintf "send %d->%d" s d
  | Lose i -> Printf.sprintf "lose %d" i
  | Arrive i -> Printf.sprintf "arrive %d" i
  | Duplicate i -> Printf.sprintf "dup %d" i
  | Fire i -> Printf.sprintf "fire %d" i

let script_arb =
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map show ops))
    QCheck.Gen.(list_size (int_range 0 120) op_gen)

(* Takes the [i mod length]-th element out of [l]. *)
let take l i =
  let i = i mod List.length l in
  (List.nth l i, List.filteri (fun j _ -> j <> i) l)

let run_script ops =
  let config =
    {
      (Core.Config.make "pbft" ~n:4 ~reliable:true ~retrans_max ~record_trace:true) with
      Core.Config.telemetry = { Core.Config.default_telemetry with tracing = true };
    }
  in
  let flying = ref [] and alarms = ref [] in
  let unwrapped = Hashtbl.create 16 in
  (* Drain phase: frames that arrived. *)
  let draining = ref false and arrived_late = Hashtbl.create 16 in
  (* Frames put on the wire, per (src, dst, seq). *)
  let frames = Hashtbl.create 16 in
  let next_id = ref 0 in
  let lower =
    {
      Transport.send =
        (fun ~src ~dst ~tag ~size payload ->
          (match payload with
          | Transport.Rc_frame { seq; _ } ->
            let k = (src, dst, seq) in
            Hashtbl.replace frames k (1 + Option.value ~default:0 (Hashtbl.find_opt frames k))
          | _ -> ());
          incr next_id;
          flying :=
            !flying @ [ Message.make ~id:!next_id ~src ~dst ~sent_at:Time.zero ~tag ~size payload ]);
      broadcast = (fun ~src:_ ~include_self:_ ~tag:_ ~size:_ _ -> ());
      deliver = (fun up -> up);
      on_timer = (fun _ -> false);
    }
  in
  let telemetry = Core.Telemetry.create config ~now_ms:(fun () -> 0.) ~restarts:false in
  let env =
    {
      Transport.config;
      network =
        Network.create ~delay:(Delay_model.Constant 1.) ~topology:(Topology.fully_connected 4)
          ~rng:(Rng.create 1) ();
      rng = Rng.create 2;
      now = (fun () -> Time.zero);
      lifecycle = Core.Lifecycle.create config ~cpus:[||] ~now_ms:(fun () -> 0.);
      cpus = [||];
      attack = None;
      next_id = (fun () -> incr next_id; !next_id);
      deliver_at = (fun _ ~dst:_ ~id:_ _ -> ());
      arm_timer =
        (fun ~owner ~delay_ms:_ ~tag payload ->
          incr next_id;
          let alarm = { Timer.id = !next_id; owner; deadline = Time.zero; tag; payload } in
          alarms := !alarms @ [ alarm ];
          Core.Telemetry.alarm telemetry Core.Telemetry.Armed alarm;
          !next_id);
      telemetry;
      dropped = ref 0;
    }
  in
  let rc = Transport.reliable env (Rng.create 3) lower in
  let up =
    rc.Transport.deliver (fun msg ~dst ->
        let k = (msg.Message.src, dst, msg.Message.tag) in
        Hashtbl.replace unwrapped k (1 + Option.value ~default:0 (Hashtbl.find_opt unwrapped k)))
  in
  let receive ({ Message.msg; dst; _ } : Message.addressed) =
    (match msg.Message.payload with
    | Transport.Rc_frame { tag; _ } when !draining ->
      Hashtbl.replace arrived_late (msg.Message.src, dst, tag) ()
    | _ -> ());
    up msg ~dst
  in
  let sent = ref [] in
  let step = function
    | Send (src, dst) ->
      (* The tag names the payload, so unwraps and give-ups identify it. *)
      let tag = Printf.sprintf "m%d" (List.length !sent) in
      sent := (src, dst, tag) :: !sent;
      rc.Transport.send ~src ~dst ~tag ~size:64 (Message.Blob tag)
    | (Lose i | Arrive i | Duplicate i) as op when !flying <> [] ->
      let msg, rest = take !flying i in
      flying := (match op with Duplicate _ -> !flying | _ -> rest);
      if (match op with Lose _ -> false | _ -> true) then receive msg
    | Fire i when !alarms <> [] ->
      let alarm, rest = take !alarms i in
      alarms := rest;
      ignore (rc.Transport.on_timer alarm : bool)
    | Lose _ | Arrive _ | Duplicate _ | Fire _ -> ()
  in
  List.iter step ops;
  (* The wire turns perfect: deliver everything, then fire the oldest alarm,
     until the channel is quiet.  Alarm chains are bounded by retrans_max. *)
  let rec drain () =
    match (!flying, !alarms) with
    | msg :: rest, _ ->
      flying := rest;
      receive msg;
      drain ()
    | [], _ :: _ ->
      step (Fire 0);
      drain ()
    | [], [] -> ()
  in
  let trace = Option.get (Core.Telemetry.trace telemetry) in
  let before_drain = Core.Trace.length trace in
  draining := true;
  drain ();
  (* Abandoned frames, as the trace records them: all, and those given up
     during the drain. *)
  let given_up = Hashtbl.create 16 and given_up_late = ref [] in
  List.iteri
    (fun i (e : Core.Trace.entry) ->
      if e.kind = Core.Trace.Drop && e.detail = "rc-give-up" then begin
        Hashtbl.replace given_up (e.node, e.peer, e.tag) ();
        if i >= before_drain then given_up_late := (e.node, e.peer, e.tag) :: !given_up_late
      end)
    (Core.Trace.entries trace);
  let count table k = Option.value ~default:0 (Hashtbl.find_opt table k) in
  List.for_all
    (fun k -> count unwrapped k = 1 || (count unwrapped k = 0 && Hashtbl.mem given_up k))
    !sent
  && Hashtbl.fold (fun _ n ok -> ok && n <= 1 + retrans_max) frames true
  && List.for_all (fun k -> not (Hashtbl.mem arrived_late k)) !given_up_late
  && Core.Telemetry.open_timer_spans telemetry = 0

let prop_reliable_channel =
  QCheck.Test.make ~count:500
    ~name:"reliable channel: at most once, exactly once unless given up, bounded retries, acked"
    script_arb run_script

(* The bare wire of an [n]-node pbft run (no chaos plan, twins or loss,
   and the verdict [attack], none by default): [broadcast ()] sends one
   prepare from node 0 to everyone, and the envelopes and ids reach
   [deliver_at] per destination. *)
let bare_wire ?attack n =
  let config = Core.Config.make "pbft" ~n in
  let none = Message.envelope ~src:(-1) ~sent_at:Time.zero (Message.Blob "") in
  let envelopes = Array.make n none and ids = Array.make n 0 in
  let next_id = ref 0 in
  let telemetry = Core.Telemetry.create config ~now_ms:(fun () -> 0.) ~restarts:false in
  let wire =
    Transport.create
      {
        Transport.config;
        network =
          Network.create ~delay:(Delay_model.normal ~mu:250. ~sigma:50.)
            ~topology:(Topology.fully_connected n) ~rng:(Rng.create 1) ();
        rng = Rng.create 2;
        now = (fun () -> Time.zero);
        lifecycle = Core.Lifecycle.create config ~cpus:[||] ~now_ms:(fun () -> 0.);
        cpus = [||];
        attack;
        next_id =
          (fun () ->
            incr next_id;
            !next_id);
        deliver_at =
          (fun msg ~dst ~id _ ->
            envelopes.(dst) <- msg;
            ids.(dst) <- id);
        arm_timer = (fun ~owner:_ ~delay_ms:_ ~tag:_ _ -> 0);
        telemetry;
        dropped = ref 0;
      }
  in
  let broadcast () =
    wire.Transport.broadcast ~src:0 ~include_self:true ~tag:"prepare" ~size:128 (Message.Blob "v")
  in
  (broadcast, envelopes, ids, none)

(* Minor words of one broadcast, after a first one has warmed up. *)
let broadcast_words broadcast =
  broadcast ();
  let before = Gc.minor_words () in
  broadcast ();
  Gc.minor_words () -. before

(* One envelope per broadcast: a 512-recipient broadcast through the wire,
   with a verdict asked as an attack, a chaos plan or twins ask it, hands
   every delivery the same envelope, under ids issued one per recipient in
   send order, and allocates a small constant per recipient, not a message
   record. *)
let test_broadcast_shares_envelope () =
  let n = 512 in
  let broadcast, envelopes, ids, none =
    bare_wire ~attack:(fun _ ~dst:_ ~delay_ms:_ -> Bftsim_attack.Attacker.Deliver) n
  in
  broadcast ();
  let first = envelopes.(0) in
  Alcotest.(check bool) "one envelope for all recipients" true
    (first != none && Array.for_all (fun m -> m == first) envelopes);
  Alcotest.(check (array int)) "ids in send order" (Array.init n (fun dst -> dst + 1)) ids;
  let per_recipient = broadcast_words broadcast /. float_of_int n in
  (* 2.04 measured: the delay boxed once for the verdict.  A record per
     recipient would add at least 9. *)
  if per_recipient > 2.5 then
    Alcotest.failf "%.2f minor words per recipient > budget 2.5" per_recipient

(* The delay travels in the wire's cell from the draw to [deliver_at], and
   no verdict is asked, so a broadcast allocates its envelope and the
   fan-out's closure, the same words at n=4 as at n=64: nothing per
   recipient (4.0 words each when the draw and the verdicts' delay were
   boxed). *)
let test_bare_wire_alloc () =
  let words n =
    let broadcast, _, _, _ = bare_wire n in
    broadcast_words broadcast
  in
  let small = words 4 and large = words 64 in
  if small <> large then
    Alcotest.failf "broadcast: %.0f minor words at n=4 but %.0f at n=64" small large

let () =
  Alcotest.run "transport"
    [
      ("reliable channel", [ QCheck_alcotest.to_alcotest prop_reliable_channel ]);
      ( "wire",
        [
          Alcotest.test_case "broadcast shares one envelope" `Quick test_broadcast_shares_envelope;
          Alcotest.test_case "bare wire allocates nothing per recipient" `Quick
            test_bare_wire_alloc;
        ]
      );
    ]
