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
   - every retransmission has exactly one [timer:rc-retransmit] span, on
     its sender's track, and no alarm stays open: each one armed was
     consumed by the end of the drain. *)

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
      Core.Config.telemetry = { Core.Config.default_telemetry with metrics = true; tracing = true };
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
      arm_retransmit = (fun frame _ -> alarms := !alarms @ [ frame ]);
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
  let sent = ref [] and consumed = ref 0 in
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
      incr consumed;
      Transport.retransmit alarm
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
  (* Retransmissions per sender, as the wire saw them and as the spans
     record them. *)
  let resent = Array.make nodes 0 and spans = Array.make nodes 0 in
  Hashtbl.iter (fun (src, _, _) n -> resent.(src) <- resent.(src) + n - 1) frames;
  Bftsim_obs.Tracer.iter
    (Option.get (Core.Telemetry.tracer telemetry))
    (fun e ->
      if e.Bftsim_obs.Tracer.name = "timer:rc-retransmit" then
        spans.(e.Bftsim_obs.Tracer.node) <- spans.(e.Bftsim_obs.Tracer.node) + 1);
  let timer_set =
    match
      List.assoc_opt "timer.set"
        (Bftsim_obs.Metrics.snapshot (Option.get (Core.Telemetry.metrics telemetry)))
    with
    | Some (Bftsim_obs.Metrics.Counter_v c) -> c
    | _ -> 0
  in
  List.for_all
    (fun k -> count unwrapped k = 1 || (count unwrapped k = 0 && Hashtbl.mem given_up k))
    !sent
  && Hashtbl.fold (fun _ n ok -> ok && n <= 1 + retrans_max) frames true
  && List.for_all (fun k -> not (Hashtbl.mem arrived_late k)) !given_up_late
  && resent = spans
  && timer_set = !consumed
  && Core.Telemetry.open_timer_spans telemetry = 0

let prop_reliable_channel =
  QCheck.Test.make ~count:500
    ~name:"reliable channel: at most once, exactly once unless given up, bounded retries, acked"
    script_arb run_script

(* A lossy reliable pbft run in which node 1 crashes at 1,000 ms and
   restarts at 1,600 ms holding unacked frames: their retransmission
   alarms come due while it is down, are deferred to its restart and run
   then — three timer spans on node 1 armed before the crash end at the
   restart instant.  The counters, the event count and the fingerprint are
   pinned at their values before retransmission alarms became plain
   events. *)
let test_deferred_retransmission_pinned () =
  let config =
    {
      (Core.Config.make "pbft" ~n:4 ~seed:1 ~lambda_ms:200.
         ~delay:(Delay_model.normal ~mu:50. ~sigma:10.)
         ~decisions_target:10 ~max_time_ms:60_000.
         ~loss:(Loss_model.make ~drop:0.2 ~dup:0.05 ~reorder_ms:50. ())
         ~reliable:true)
      with
      Core.Config.retrans_base_ms = 100.;
      chaos = Result.get_ok (Bftsim_attack.Fault_schedule.of_string "crash:1@1000;restart:1@1600");
      telemetry = { Core.Config.default_telemetry with metrics = true; tracing = true };
    }
  in
  let r = Core.Controller.run config in
  let snapshot = Bftsim_obs.Metrics.snapshot (Option.get r.Core.Controller.metrics) in
  let counter name =
    match List.assoc_opt name snapshot with
    | Some (Bftsim_obs.Metrics.Counter_v c) -> c
    | _ -> Alcotest.failf "no counter %s" name
  in
  let deferred = ref 0 in
  Bftsim_obs.Tracer.iter (Option.get r.Core.Controller.spans) (fun e ->
      if
        e.Bftsim_obs.Tracer.name = "timer:rc-retransmit"
        && e.Bftsim_obs.Tracer.node = 1
        && e.Bftsim_obs.Tracer.ts_us < 1.0e6
        && Float.abs (e.Bftsim_obs.Tracer.ts_us +. e.Bftsim_obs.Tracer.dur_us -. 1.6e6) < 1e-3
      then incr deferred);
  Alcotest.(check int) "deferred retransmissions run at the restart" 3 !deferred;
  Alcotest.(check (list (pair string int)))
    "counters"
    [
      ("timer.set", 793);
      ("timer.fired", 404);
      ("net.retrans", 395);
      ("net.dup_dropped", 216);
      ("net.loss_dropped", 283);
      ("net.dup_created", 37);
    ]
    (List.map
       (fun name -> (name, counter name))
       [
         "timer.set";
         "timer.fired";
         "net.retrans";
         "net.dup_dropped";
         "net.loss_dropped";
         "net.dup_created";
       ]);
  Alcotest.(check int) "events_processed" 1837 r.Core.Controller.events_processed;
  Alcotest.(check string) "fingerprint"
    "45be585a0192f79717fdd329f9c8a17b0cb2e42b62177818f5a218ea5892d097"
    (Bftsim_conformance.Fingerprint.of_result r)

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
        arm_retransmit = (fun _ _ -> ());
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
      ( "reliable channel",
        [
          QCheck_alcotest.to_alcotest prop_reliable_channel;
          Alcotest.test_case "deferred retransmission pinned" `Quick
            test_deferred_retransmission_pinned;
        ] );
      ( "wire",
        [
          Alcotest.test_case "broadcast shares one envelope" `Quick test_broadcast_shares_envelope;
          Alcotest.test_case "bare wire allocates nothing per recipient" `Quick
            test_bare_wire_alloc;
        ]
      );
    ]
