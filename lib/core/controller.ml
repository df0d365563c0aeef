open Bftsim_sim
open Bftsim_net
module Attack = Bftsim_attack
module Protocols = Bftsim_protocols
module Obs = Bftsim_obs

type outcome =
  | Reached_target
  | Timed_out
  | Event_cap
  | Queue_drained
  | Stalled of { last_progress_ms : float }

type result = {
  config : Config.t;
  outcome : outcome;
  time_ms : float;
  messages_sent : int;
  bytes_sent : int;
  messages_dropped : int;
  events_processed : int;
  decisions : (int * string list) list;
  safety_ok : bool;
  safety_violation : string option;
  violations : Invariant.violation list;
  corrupted : int list;
  per_decision_latency_ms : float;
  per_decision_messages : float;
  final_views : int array;
  view_samples : (float * int array) list;
  trace : Trace.t option;
  metrics : Obs.Metrics.t option;
  spans : Obs.Tracer.t option;
}

type Timer.payload += Sample_views

(* Workload layer (DESIGN.md §3.16): a run can be driven by client traffic
   instead of one pre-agreed value.  The hooks live here — not in Config —
   because they are closures over harness state, and Config must stay a
   serializable key = value record.  With [?workload] absent every hook site
   below degenerates to the pre-workload behavior, bit for bit. *)
type workload_env = {
  wl_now_ms : unit -> float;
  wl_schedule : delay_ms:float -> (unit -> unit) -> unit;
      (** Deterministic one-shot callback on the simulation clock; the
          workload harness uses it for client arrivals and batch timers. *)
}

type workload = {
  on_workload_start : workload_env -> unit;
  on_request_proposal :
    node:int ->
    slot:int ->
    width:int ->
    default:Protocols.Context.proposal ->
    (Protocols.Context.proposal -> bool) ->
    unit;
      (** A leader asks for a proposal payload covering [width] consensus
          slots; the harness may delay the continuation until a batch is
          cut.  The continuation reports whether the proposal was actually
          used — [false] means the leader window went stale (view change)
          and the harness should re-queue the batched requests. *)
  on_commit : node:int -> index:int -> value:string -> at_ms:float -> unit;
      (** Every decide by every physical node, in simulation order — the
          commit-ack stream that closes the request-latency loop. *)
}

type Timer.payload += Workload_fire of (unit -> unit)

(* [epoch] is the owner's incarnation when the alarm was armed: an alarm
   set before a restart must not fire into the fresh node.  Alarms owned
   by [Timer.attacker_owner] belong to the attacker, the workload and the
   controller itself. *)
type event =
  | Deliver of Message.t
  | Deliver_verified of Message.t
  | Alarm of { timer : Timer.t; epoch : int }

let pp_outcome ppf = function
  | Reached_target -> Format.pp_print_string ppf "reached-target"
  | Timed_out -> Format.pp_print_string ppf "timed-out"
  | Event_cap -> Format.pp_print_string ppf "event-cap"
  | Queue_drained -> Format.pp_print_string ppf "queue-drained"
  | Stalled { last_progress_ms } ->
    Format.fprintf ppf "stalled(last-progress=%gms)" last_progress_ms

let build_attacker (config : Config.t) =
  match config.attack with
  | Config.No_attack -> Attack.Attacker.passthrough
  | Config.Partition { first_size; start_ms; heal_ms; drop } ->
    let mode =
      if drop then Attack.Partition_attack.Drop_cross_traffic
      else Attack.Partition_attack.Delay_until_heal { jitter_ms = 10. }
    in
    Attack.Partition_attack.two_subnets ~n:config.n ~first_size ~start_ms ~heal_ms mode
  | Config.Silence { nodes; at_ms } -> Attack.Failstop.at_time ~nodes ~at_ms
  | Config.Add_static { f } -> Protocols.Addplus_attacks.static ~f
  | Config.Add_rushing_adaptive { budget } -> Protocols.Addplus_attacks.rushing_adaptive ?budget ()
  | Config.Extra_delay { extra_ms } -> Attack.Attacker.delay_all ~extra_ms

(* Test-only fault injection: BFTSIM_FAULT_INJECT="crash@17;hang@23" makes
   the replication seeded 17 raise at startup and the one seeded 23 spin on
   the wall clock until cancelled.  The supervised campaign drivers turn
   those into structured outcomes; the knob exists so the resilience tests
   and the CI kill-and-resume job can exercise that machinery end to end. *)
let injected_faults =
  lazy
    (match Sys.getenv_opt "BFTSIM_FAULT_INJECT" with
    | None | Some "" -> []
    | Some spec ->
      String.split_on_char ';' spec
      |> List.filter_map (fun directive ->
             match String.split_on_char '@' (String.trim directive) with
             | [ "crash"; seed ] -> Option.map (fun s -> (`Crash, s)) (int_of_string_opt seed)
             | [ "hang"; seed ] -> Option.map (fun s -> (`Hang, s)) (int_of_string_opt seed)
             | _ ->
               invalid_arg
                 (Printf.sprintf "BFTSIM_FAULT_INJECT: cannot parse %S (want crash@N or hang@N)"
                    directive)))

let no_cancel () = false

let run ?(cancel = no_cancel) ?delay_override ?attacker:attacker_override ?workload
    (config : Config.t) =
  Config.validate config;
  List.iter
    (fun (kind, seed) ->
      if seed = config.seed then
        match kind with
        | `Crash -> failwith (Printf.sprintf "BFTSIM_FAULT_INJECT: injected crash (seed %d)" seed)
        | `Hang ->
          (* Spin on the wall clock, not sim time: this models a replication
             that hangs the host.  Only the cooperative deadline (or a
             SIGKILL) gets it unstuck. *)
          while not (cancel ()) do
            Unix.sleepf 0.005
          done;
          raise Supervisor.Cancelled)
    (Lazy.force injected_faults);
  let (module P : Protocols.Protocol_intf.S) = Protocols.Registry.find_exn config.protocol in
  let n = config.n in
  (* Twins (DESIGN.md §3.14): each twinned identity runs a second physical
     replica with the same credentials and input but its own RNG stream and
     state.  Everything below the protocol boundary — arrays, RNGs, network,
     traces — is indexed by PHYSICAL id [0..pn); the protocol only ever sees
     LOGICAL ids (its own via [ctx.node_id], peers via rewritten [msg.src]).
     Without twins [pn = n] and both id spaces coincide, so the code paths
     are shared and bit-identical to a pre-twins run. *)
  let twins = config.twins in
  let pn = Config.physical_n config in
  let to_logical p =
    match twins with
    | Some tw when p >= n -> Attack.Twins_schedule.logical ~n tw p
    | Some _ | None -> p
  in
  let twinned p =
    match twins with
    | None -> false
    | Some tw -> p >= n || Attack.Twins_schedule.twin_instance ~n tw p <> None
  in
  let f = Protocols.Quorum.max_faulty n in
  let root_rng = Rng.create config.seed in
  let net_rng = Rng.split root_rng in
  let attacker_rng = Rng.split root_rng in
  let node_rngs = Array.init pn (fun _ -> Rng.split root_rng) in
  let queue : event Event_queue.t = Event_queue.create () in
  let now () = Event_queue.now queue in
  Simlog.set_now now;
  let topology =
    match config.Config.zones with
    | None -> Topology.fully_connected pn
    | Some spec -> (
      (* Validated by [Config.validate]; re-surface the error defensively
         for hand-built records that bypassed it. *)
      match Topology.of_zone_spec spec ~n:pn with
      | Ok t -> t
      | Error e -> invalid_arg ("Config: " ^ e))
  in
  let network =
    Network.create ?bandwidth_mbps:config.Config.bandwidth_mbps ~delay:config.delay ~topology
      ~rng:net_rng ()
  in
  let trace = if config.record_trace then Some (Trace.create ()) else None in
  (* Telemetry (DESIGN.md §3.11).  The registry holds only simulated
     quantities so [Runner.run_many]'s merge is identical whatever domain
     pool executed the runs; wall-clock attribution lives in the tracer.
     When both switches are off every probe below degenerates to a store
     into a dead cell or a [None] match — no hash lookups, no allocation. *)
  let telemetry = config.Config.telemetry in
  let reg = if telemetry.Config.metrics then Some (Obs.Metrics.create ()) else None in
  let tracer =
    if telemetry.Config.tracing then
      Some (Obs.Tracer.create ~capacity:telemetry.Config.trace_capacity ())
    else None
  in
  let tracing = tracer <> None in
  let telemetry_on = reg <> None || tracing in
  let has_restarts = Attack.Fault_schedule.restarts config.chaos <> [] in
  let ctr =
    match reg with
    | Some r -> fun name -> Obs.Metrics.counter r name
    | None ->
      let dead = Obs.Metrics.null_counter () in
      fun _ -> dead
  in
  (* Histogram observes mutate boxed-float fields, so unlike the dead
     counters they allocate; without a registry there is no histogram. *)
  let histogram ?buckets name = Option.map (fun r -> Obs.Metrics.histogram ?buckets r name) reg in
  let c_delivered = ctr "net.delivered" in
  let c_injected = ctr "net.injected" in
  let c_timer_set = ctr "timer.set" in
  let c_timer_fired = ctr "timer.fired" in
  let c_timer_cancelled = ctr "timer.cancelled" in
  let c_decisions = ctr "protocol.decisions" in
  let c_view_changes = ctr "protocol.view_changes" in
  let c_corruptions = ctr "attacker.corruptions" in
  let c_events = ctr "sim.events" in
  let c_twin_drops = ctr "twins.round_drops" in
  (* Restart-to-caught-up latency; present only when the plan restarts. *)
  let h_catchup = if has_restarts then histogram "recovery.catchup_ms" else None in
  let us_now () = Event_queue.now_ms queue *. 1000. in
  (* The tracer entry points: an instant at the current simulated time, or
     a span over simulated [ts_ms, ts_ms + dur_ms].  Call sites whose
     arguments allocate (rendered names, arg lists) sit behind [tracing]. *)
  let instant ?args ~name ~cat ~node () =
    match tracer with
    | Some tr -> Obs.Tracer.instant tr ?args ~name ~cat ~node ~ts_us:(us_now ()) ()
    | None -> ()
  in
  let span ?args ~name ~cat ~node ~ts_ms ~dur_ms () =
    match tracer with
    | Some tr ->
      Obs.Tracer.span tr ?args ~name ~cat ~node ~ts_us:(ts_ms *. 1000.) ~dur_us:(dur_ms *. 1000.) ()
    | None -> ()
  in
  (* Message spans run from send to arrival on the receiver's track; the
     simulated timestamps make them line up with dispatch spans in the
     Chrome/Perfetto rendering. *)
  let net_span (msg : Message.t) =
    if tracing then
      span ~name:msg.Message.tag ~cat:"net" ~node:msg.Message.dst
        ~ts_ms:(Time.to_ms msg.Message.sent_at) ~dur_ms:msg.Message.delay_ms
        ~args:[ ("src", Obs.Tracer.Int msg.Message.src); ("size", Obs.Tracer.Int msg.Message.size) ]
        ()
  in
  (* Timer spans run from arming to firing.  Set times are tracked only
     when tracing — the table is dead weight otherwise. *)
  let timer_set_at : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let note_timer_fired (timer : Timer.t) =
    incr c_timer_fired;
    if tracing then begin
      let now_ms = Event_queue.now_ms queue in
      let set_ms =
        match Hashtbl.find_opt timer_set_at timer.Timer.id with
        | Some s ->
          Hashtbl.remove timer_set_at timer.Timer.id;
          s
        | None -> now_ms
      in
      span
        ~name:("timer:" ^ timer.Timer.tag)
        ~cat:"timer" ~node:timer.Timer.owner ~ts_ms:set_ms ~dur_ms:(now_ms -. set_ms) ()
    end
  in
  let note_timer_cancelled (timer : Timer.t) =
    incr c_timer_cancelled;
    if tracing then begin
      Hashtbl.remove timer_set_at timer.Timer.id;
      instant ~name:("cancel:" ^ timer.Timer.tag) ~cat:"timer" ~node:timer.Timer.owner ()
    end
  in
  let record kind ~node ~peer ~tag ~detail =
    match trace with
    | None -> ()
    | Some t ->
      Trace.record t
        { at_ms = Event_queue.now_ms queue; kind; node; peer; tag; detail }
  in
  (* Ambient sink: protocol / library code below the controller can emit
     probes without a handle (domain-local, so concurrent runs on a domain
     pool stay separate).  Warnings and errors are mirrored onto the trace
     timeline so anomalies appear next to the events that caused them. *)
  if telemetry_on then Obs.Probe.set ?metrics:reg ?tracer ();
  if tracing then
    Simlog.set_mirror
      (Some
         (fun ~level s ->
           let name =
             match level with Logs.Error -> "error" | Logs.Warning -> "warning" | _ -> "log"
           in
           instant ~name ~cat:"log" ~node:(-1) ~args:[ ("msg", Obs.Tracer.Str s) ] ()));
  let crashed = Array.make pn false in
  List.iter (fun i -> crashed.(i) <- true) config.crashed;
  let corrupted = Array.make pn false in
  let corrupted_order = ref [] in
  let dropped = ref 0 in
  let msg_counter = ref 0 in
  let next_id () =
    incr msg_counter;
    !msg_counter
  in
  let timer_counter = ref 0 in
  (* Timer bookkeeping: [pending] holds every scheduled-but-not-yet-fired
     id, [cancelled] the pending ids whose owner revoked them.  Timer ids
     are issued sequentially, so both sets are flat bitsets (one bit per id
     ever issued, no per-operation allocation) instead of hashtables.  Both
     are pruned when the timer event is consumed; cancelling an id that
     already fired is a no-op (nothing is pending), which is what keeps
     [cancelled] from accumulating. *)
  let pending_timers = Dense_set.create ~initial_capacity:1024 () in
  let cancelled = Dense_set.create ~initial_capacity:1024 () in
  let consume_timer id =
    Dense_set.remove pending_timers id;
    if Dense_set.mem cancelled id then begin
      Dense_set.remove cancelled id;
      false
    end
    else true
  in
  let decisions : string list ref array = Array.init pn (fun _ -> ref []) in
  (* Per-node decision counts, maintained incrementally so the hot
     decide/check_target path never walks the accumulating lists. *)
  let decision_counts = Array.make pn 0 in
  let finished = ref None in
  let outcome = ref Queue_drained in
  let view_samples = ref [] in
  let chaos = Attack.Fault_schedule.normalize config.chaos in
  let attacker =
    let base = match attacker_override with Some a -> a | None -> build_attacker config in
    (* Layering: chaos first (a message a crashed source never sent must not
       reach anything downstream), then the twins partition schedule, then
       the scenario attacker. *)
    let layers =
      (match chaos with [] -> [] | _ -> [ Attack.Fault_schedule.to_attacker chaos ])
      @
      match twins with
      | None -> []
      | Some tw -> [ Attack.Twins_schedule.to_attacker ~on_drop:(fun () -> incr c_twin_drops) tw ]
    in
    match layers with [] -> base | _ -> Attack.Attacker.compose (layers @ [ base ])
  in
  (* Throughput extension (§III-A3): sequential per-node CPUs charged for
     signing, verification and WAL writes; zero costs short-circuit to the
     paper's cost-free behaviour. *)
  let cpus = Array.init pn (fun _ -> Cost_model.make_cpu ()) in
  (* Simulated per-node write-ahead log: the only node state that survives a
     [restart@].  [incarnation] stamps every alarm (see [event]). *)
  let wal : (string, string) Hashtbl.t array = Array.init pn (fun _ -> Hashtbl.create 8) in
  (* Restart instant of a node that has not caught up yet. *)
  let awaiting_catchup = Array.make pn None in
  let incarnation = Array.make pn 0 in

  (* Nodes the chaos plan fail-stops and never restarts can no more reach
     the decision target than config-crashed ones; recovered nodes stay
     counted and must catch up. *)
  let chaos_gone =
    Array.init pn (fun node -> Attack.Fault_schedule.crashed_at chaos ~node ~at_ms:Float.infinity)
  in
  (* Twin instances emulate a Byzantine identity: they are excluded from the
     decision target and from agreement — equivocation between the two
     halves is the attack, not the violation.  The violation the oracles
     look for is disagreement among the remaining honest nodes. *)
  let counted node =
    (not crashed.(node)) && (not corrupted.(node)) && (not chaos_gone.(node)) && not (twinned node)
  in
  (* Per-index agreement presumes complete logs; a node the plan crashes
     and restarts misses the decisions made while it was down (there is no
     state transfer), so only never-crashed nodes are index-aligned — and
     neither is an honest node a twins round cut off from a quorum, which
     misses the quorum side's decisions the same way. *)
  let aligned node =
    counted node
    && (not (Attack.Fault_schedule.ever_crashed chaos ~node))
    && not
         (match twins with
         | None -> false
         | Some tw ->
           Attack.Twins_schedule.isolated_below_quorum ~n ~quorum:(Protocols.Quorum.quorum n) tw
             ~node)
  in
  let last_progress = ref 0. in
  let monitor =
    Invariant.create ~counted ~aligned
      ~crashed_now:(fun ~node ~at_ms ->
        crashed.(node) || Attack.Fault_schedule.crashed_at chaos ~node ~at_ms)
      ?valid_values:
        (if config.check_validity then Some (List.init n (Config.input_for config)) else None)
      ()
  in
  let check_target () =
    if !finished = None then begin
      let all_done = ref true in
      for i = 0 to pn - 1 do
        if counted i && decision_counts.(i) < config.decisions_target then all_done := false
      done;
      if !all_done then begin
        finished := Some (Event_queue.now_ms queue);
        outcome := Reached_target
      end
    end
  in

  (* Every alarm — protocol, reliable channel, attacker, workload — is
     armed here. *)
  let arm_timer ~owner ~delay_ms ~tag payload =
    incr timer_counter;
    let id = !timer_counter in
    Dense_set.add pending_timers id;
    incr c_timer_set;
    if tracing then Hashtbl.replace timer_set_at id (Event_queue.now_ms queue);
    let deadline = Time.add_ms (Event_queue.now queue) (Float.max 0. delay_ms) in
    let epoch = if owner >= 0 then incarnation.(owner) else 0 in
    Event_queue.schedule queue ~at:deadline
      (Alarm { timer = { Timer.id; owner; deadline; tag; payload }; epoch });
    id
  in
  let deliver_at msg =
    net_span msg;
    Event_queue.schedule queue ~at:(Message.arrival_time msg) (Deliver msg)
  in

  let attacker_env =
    {
      (* Attackers see the physical replica set — the twins partition
         schedule addresses twin halves individually. *)
      Attack.Attacker.n = pn;
      f;
      lambda_ms = config.lambda_ms;
      now;
      rng = attacker_rng;
      topology;
      set_timer = arm_timer ~owner:Timer.attacker_owner;
      inject =
        (fun ~src ~dst ~delay_ms ~tag ~size payload ->
          let id = next_id () in
          incr c_injected;
          let msg = Message.make ~id ~src ~dst ~sent_at:(now ()) ~tag ~size payload in
          msg.Message.delay_ms <- Float.max 0. delay_ms;
          record Trace.Send ~node:src ~peer:dst ~tag ~detail:"<injected>";
          deliver_at msg);
      corrupt =
        (fun node ->
          if node < 0 || node >= n || corrupted.(node) then false
          else if List.length !corrupted_order >= f then false
          else begin
            corrupted.(node) <- true;
            corrupted_order := node :: !corrupted_order;
            incr c_corruptions;
            instant ~name:"corrupt" ~cat:"attacker" ~node ();
            Simlog.info "attacker corrupts node %d" node;
            true
          end);
      is_corrupted = (fun node -> node >= 0 && node < n && corrupted.(node));
      corrupted = (fun () -> List.sort compare !corrupted_order);
      override_delay = Network.override_delay network;
    }
  in

  let transport =
    Transport.create
      {
        Transport.config;
        network;
        rng = root_rng;
        now;
        crashed;
        cpus;
        attack = (fun msg -> attacker.Attack.Attacker.attack attacker_env msg);
        delay_override;
        next_id;
        deliver_at;
        arm_timer;
        timer_fired = note_timer_fired;
        counter = ctr;
        histogram;
        discarded =
          (fun kind ~name ~detail (msg : Message.t) ->
            if tracing then
              instant ~name:(name ^ msg.Message.tag) ~cat:"net" ~node:msg.Message.src
                ~args:[ ("dst", Obs.Tracer.Int msg.Message.dst) ]
                ();
            record kind ~node:msg.Message.src ~peer:msg.Message.dst ~tag:msg.Message.tag ~detail);
        record;
        recording = trace <> None;
        dropped;
      }
  in
  let send = transport.Transport.send in

  let leader_schedule =
    match twins with
    | Some tw when tw.Attack.Twins_schedule.leaders <> [] ->
      Some (Array.of_list tw.Attack.Twins_schedule.leaders)
    | Some _ | None -> None
  in
  (* [p] is the physical slot; the protocol instance inside it identifies as
     the LOGICAL [node_id] — a twin half sends, votes and leads under its
     co-twin's identity.  Bookkeeping (RNG, decisions, timers, trace rows)
     stays per-physical so the two halves remain distinguishable below the
     protocol boundary. *)
  let make_ctx p =
    let node_id = to_logical p in
    {
      Protocols.Context.node_id;
      n;
      f;
      lambda_ms = config.lambda_ms;
      seed = config.seed;
      input = Config.input_for config node_id;
      naive_reset = config.Config.naive_reset;
      rng = node_rngs.(p);
      now;
      send_raw =
        (match twins with
        | None ->
          (* Without twins the logical and physical id spaces coincide;
             skip the per-send singleton instance list. *)
          fun ~dst ~tag ~size payload -> send ~src:p ~dst ~tag ~size payload
        | Some tw ->
          (* The protocol addresses a logical identity; a twinned destination
             is two machines, each owed its own copy. *)
          fun ~dst ~tag ~size payload ->
            List.iter
              (fun pdst -> send ~src:p ~dst:pdst ~tag ~size payload)
              (Attack.Twins_schedule.instances ~n tw dst));
      broadcast_raw =
        (fun ~include_self ~tag ~size payload ->
          transport.Transport.broadcast ~src:p ~include_self ~tag ~size payload);
      set_timer = arm_timer ~owner:p;
      cancel_timer =
        (fun id -> if Dense_set.mem pending_timers id then Dense_set.add cancelled id);
      decide =
        (fun value ->
          let at_ms = Event_queue.now_ms queue in
          let index = decision_counts.(p) in
          decision_counts.(p) <- index + 1;
          decisions.(p) := value :: !(decisions.(p));
          incr c_decisions;
          if tracing then
            instant ~name:"decide" ~cat:"protocol" ~node:p
              ~args:[ ("index", Obs.Tracer.Int index); ("value", Obs.Tracer.Str value) ]
              ();
          record Trace.Decide ~node:p ~peer:(-1) ~tag:value ~detail:"";
          Invariant.on_decide monitor ~node:p ~index ~value ~at_ms;
          (match workload with
          | Some w -> w.on_commit ~node:p ~index ~value ~at_ms
          | None -> ());
          if counted p then last_progress := Float.max !last_progress at_ms;
          check_target ());
      probe =
        (fun ~tag ~detail ->
          if tracing then
            instant ~name:tag ~cat:"protocol" ~node:p
              ~args:(if detail = "" then [] else [ ("detail", Obs.Tracer.Str detail) ])
              ());
      leader_schedule;
      request_proposal =
        (match workload with
        | None ->
          (* No workload: the continuation runs immediately with the
             protocol's own default — the pre-workload behavior. *)
          fun ~slot:_ ~width:_ ~default k -> ignore (k default : bool)
        | Some w ->
          fun ~slot ~width ~default k -> w.on_request_proposal ~node:p ~slot ~width ~default k);
      pipeline_depth = config.Config.pipeline;
      durable = has_restarts;
      persist =
        (fun ~key value ->
          Hashtbl.replace wal.(p) key value;
          if config.Config.wal_ms > 0. then
            ignore
              (Cost_model.charge cpus.(p) ~now_ms:(Event_queue.now_ms queue)
                 ~cost_ms:config.Config.wal_ms
                : float));
      recall = (fun ~key -> Hashtbl.find_opt wal.(p) key);
      on_caught_up =
        (fun () ->
          match awaiting_catchup.(p) with
          | None -> ()
          | Some restart_ms ->
            awaiting_catchup.(p) <- None;
            let dur = Event_queue.now_ms queue -. restart_ms in
            Option.iter (fun h -> Obs.Metrics.observe_h h dur) h_catchup;
            if tracing then
              instant ~name:"caught-up" ~cat:"recovery" ~node:p ~args:[ ("ms", Obs.Tracer.Float dur) ] ();
            Simlog.info "node %d caught up %.1f ms after restart" p dur);
    }
  in

  let ctxs = Array.init pn make_ctx in
  let nodes = Array.mapi (fun p ctx -> if crashed.(p) then None else Some (P.create ctx)) ctxs in

  attacker.Attack.Attacker.on_start attacker_env;
  (* The workload initializes before the nodes start: a leader's first
     proposal request must already find the harness listening. *)
  (match workload with
  | None -> ()
  | Some w ->
    w.on_workload_start
      {
        wl_now_ms = (fun () -> Event_queue.now_ms queue);
        wl_schedule =
          (fun ~delay_ms f ->
            ignore
              (arm_timer ~owner:Timer.attacker_owner ~delay_ms ~tag:"workload" (Workload_fire f)
                : Timer.id));
      });
  Array.iteri (fun i node -> match node with Some nd -> P.on_start nd ctxs.(i) | None -> ()) nodes;

  (* Each node's view; -1 for config-crashed nodes, which never exist. *)
  let views () = Array.map (function Some nd -> P.view nd | None -> -1) nodes in
  (* View-change accounting: compare a node's view after each of its
     handlers.  Views derive from simulated execution only, so both the
     counter and the instants are replication-deterministic.  Gated on
     [telemetry_on] — the disabled path must not even call [P.view]. *)
  let last_views = if telemetry_on then views () else [||] in
  let note_view node_id =
    match nodes.(node_id) with
    | Some nd ->
      let v = P.view nd in
      if v <> last_views.(node_id) then begin
        last_views.(node_id) <- v;
        incr c_view_changes;
        if tracing then
          instant ~name:"view-change" ~cat:"protocol" ~node:node_id
            ~args:[ ("view", Obs.Tracer.Int v) ]
            ()
      end
    | None -> ()
  in

  (* Periodic view sampling for the Fig. 9 analysis, on a controller alarm
     outside the timer bookkeeping. *)
  let sample_views_at deadline =
    let timer =
      { Timer.id = 0; owner = Timer.attacker_owner; deadline; tag = "sample-views"; payload = Sample_views }
    in
    Event_queue.schedule queue ~at:deadline (Alarm { timer; epoch = 0 })
  in
  Option.iter (fun period -> sample_views_at (Time.of_ms period)) config.view_sample_ms;

  (* At the protocol boundary a message carries logical endpoints: a twin
     half's traffic is indistinguishable from its co-twin's — that is the
     entire attack surface.  The physical copy stays untouched for traces
     and replay (delays are keyed by physical link). *)
  let to_protocol (msg : Message.t) =
    if msg.Message.src < n && msg.Message.dst < n then msg
    else { msg with Message.src = to_logical msg.Message.src; dst = to_logical msg.Message.dst }
  in
  (* The top of the stack: what every stage let through reaches the node. *)
  let deliver =
    transport.Transport.deliver (fun (msg : Message.t) ->
        let dst = msg.Message.dst in
        match nodes.(dst) with
        | Some node ->
          incr c_delivered;
          (* Same guard as the Send site: don't render the payload when the
             row is going nowhere. *)
          if trace <> None then
            record Trace.Deliver ~node:dst ~peer:msg.Message.src ~tag:msg.Message.tag
              ~detail:(Message.payload_to_string msg.Message.payload);
          P.on_message node ctxs.(dst) (to_protocol msg);
          if telemetry_on then note_view dst
        | None -> ())
  in
  let node_alarm (timer : Timer.t) epoch =
    let id = timer.Timer.id and owner = timer.Timer.owner in
    let now_ms = Event_queue.now_ms queue in
    if
      (not (Dense_set.mem cancelled id))
      && Attack.Fault_schedule.crashed_at chaos ~node:owner ~at_ms:now_ms
    then begin
      (* Crash-recovery semantics: a down node's timer is deferred to its
         restart instant (its timeout fires "on reboot"), or lost with the
         node if it never comes back. *)
      match Attack.Fault_schedule.next_recovery_after chaos ~node:owner ~at_ms:now_ms with
      | Some recover_ms ->
        (* Deferred, not consumed: the id stays pending and cancellable. *)
        let deadline = Time.of_ms recover_ms in
        Event_queue.schedule queue ~at:deadline (Alarm { timer = { timer with Timer.deadline }; epoch })
      | None -> Dense_set.remove pending_timers id
    end
    else if not (consume_timer id) then note_timer_cancelled timer
    (* Transport alarms are exempt from the incarnation check: the channel
       survives restarts. *)
    else if transport.Transport.on_timer timer then ()
    else if epoch <> incarnation.(owner) then
      (* Armed by a previous incarnation of a restarted node: the volatile
         state it referred to no longer exists. *)
      note_timer_cancelled timer
    else
      match nodes.(owner) with
      | Some node ->
        note_timer_fired timer;
        record Trace.Timer_fired ~node:owner ~peer:(-1) ~tag:timer.Timer.tag ~detail:"";
        P.on_timer node ctxs.(owner) timer;
        if telemetry_on then note_view owner
      | None -> ()
  in
  let restart p =
    (* Crash-recovery restart: a fresh node object — all volatile state is
       gone; only the WAL and the transport state survive.  Bumping the
       incarnation retires every alarm the previous life armed (including
       its crash-deferred ones, which land at this very instant but behind
       this timer). *)
    incarnation.(p) <- incarnation.(p) + 1;
    awaiting_catchup.(p) <- Some (Event_queue.now_ms queue);
    instant ~name:"restart" ~cat:"recovery" ~node:p ();
    let node = P.create ctxs.(p) in
    nodes.(p) <- Some node;
    P.on_restart node ctxs.(p);
    if telemetry_on then note_view p
  in
  let controller_alarm (timer : Timer.t) =
    match timer.Timer.payload with
    | Sample_views ->
      view_samples := (Event_queue.now_ms queue, views ()) :: !view_samples;
      sample_views_at (Time.add_ms timer.Timer.deadline (Option.get config.view_sample_ms))
    | payload ->
      if consume_timer timer.Timer.id then begin
        note_timer_fired timer;
        match payload with
        | Workload_fire f -> f ()
        | Attack.Fault_schedule.Chaos_step (Attack.Fault_schedule.Restart p) when p >= 0 && p < pn ->
          (* Let the chaos attacker log the transition first. *)
          attacker.Attack.Attacker.on_time_event attacker_env timer;
          restart p
        | _ -> attacker.Attack.Attacker.on_time_event attacker_env timer
      end
      else note_timer_cancelled timer
  in
  let verify_ms = config.Config.costs.Cost_model.verify_ms in
  let handle = function
    | Deliver msg ->
      let dst = msg.Message.dst in
      if dst >= 0 && dst < pn then
        if verify_ms > 0. && msg.Message.src <> dst then
          (* The receiver's CPU verifies the message before the stack sees
             it; contention shows up as extra queueing delay. *)
          let finish =
            Cost_model.charge cpus.(dst) ~now_ms:(Event_queue.now_ms queue) ~cost_ms:verify_ms
          in
          Event_queue.schedule queue ~at:(Time.of_ms finish) (Deliver_verified msg)
        else deliver msg
    | Deliver_verified msg -> deliver msg
    | Alarm { timer; epoch } ->
      if timer.Timer.owner = Timer.attacker_owner then controller_alarm timer
      else node_alarm timer epoch
  in

  (* Liveness watchdog: the simulation has stalled when the clock has run
     [k * lambda] past the last decision by a counted node.  While the fault
     plan still has steps ahead (a pending recovery, heal or GST shift) the
     watchdog holds its fire — the scenario is still unfolding and relief
     may be scheduled — and the last step resets the stall clock. *)
  let last_chaos_ms =
    let chaos_last =
      List.fold_left Float.max Float.neg_infinity (Attack.Fault_schedule.step_times chaos)
    in
    (* A twins schedule is a scheduled disturbance like chaos: while its
       partition rounds are still unfolding the watchdog holds its fire, and
       the heal at the end resets the stall clock. *)
    match twins with
    | None -> chaos_last
    | Some tw -> Float.max chaos_last (Attack.Twins_schedule.end_ms tw)
  in
  (* [stall_ms] is an absolute override: it arms the watchdog even when the
     [watchdog] multiplier is unset, and wins over it when both are given —
     lossy runs make legitimate progress gaps longer than any sensible
     multiple of lambda. *)
  let watchdog_ms =
    match config.Config.stall_ms with
    | Some s -> Some s
    | None -> Option.map (fun k -> k *. config.lambda_ms) config.watchdog
  in
  (* Per-phase profiling: each handled event becomes a span at its simulated
     instant carrying the host-time cost of its handler as an argument —
     wall clock stays out of the registry (see the determinism rule). *)
  let ev_label = function
    | Deliver m | Deliver_verified m -> ("on_msg:" ^ m.Message.tag, m.Message.dst)
    | Alarm { timer = t; _ } ->
      let kind = if t.Timer.owner = Timer.attacker_owner then "attacker:" else "on_time:" in
      (kind ^ t.Timer.tag, t.Timer.owner)
  in
  let handle_traced now_ms ev =
    incr c_events;
    if not tracing then handle ev
    else begin
      let w0 = Unix.gettimeofday () in
      handle ev;
      let wall_dur_us = (Unix.gettimeofday () -. w0) *. 1e6 in
      let name, node = ev_label ev in
      span ~name ~cat:"sim" ~node ~ts_ms:now_ms ~dur_ms:0.
        ~args:[ ("wall_dur_us", Obs.Tracer.Float wall_dur_us) ]
        ()
    end
  in
  let rec loop () =
    if !finished <> None then ()
    else if cancel () then
      (* Cooperative wall-clock deadline (DESIGN.md §3.13): abandon the run
         between events.  Runs that complete are never perturbed, so their
         results stay deterministic. *)
      raise Supervisor.Cancelled
    else if Event_queue.popped queue >= config.max_events then outcome := Event_cap
    else if Event_queue.is_empty queue then outcome := Queue_drained
    else
      (* Allocation-free pop: take the event alone and read the advanced
         clock from the unboxed lane, instead of boxing a (time, event)
         option per event. *)
      let ev = Event_queue.next_exn queue in
      begin
        let now_ms = Event_queue.now_ms queue in
        if now_ms > config.max_time_ms then outcome := Timed_out
        else begin
          match watchdog_ms with
          | Some limit
            when now_ms >= last_chaos_ms
                 && now_ms -. Float.max !last_progress last_chaos_ms > limit ->
            Simlog.info "watchdog: no progress since %g ms, aborting at %g ms" !last_progress
              now_ms;
            outcome := Stalled { last_progress_ms = !last_progress }
          | _ ->
            handle_traced now_ms ev;
            loop ()
        end
      end
  in
  (* The mirror and ambient probes are domain-local; a cancellation or
     crash escaping the loop must not leave them pointing into this run's
     dead tracer for the next run scheduled on the same domain. *)
  Fun.protect
    ~finally:(fun () ->
      if telemetry_on then begin
        Simlog.set_mirror None;
        Obs.Probe.clear ()
      end)
    loop;

  let time_ms =
    match !finished with
    | Some at -> at
    | None -> Float.min (Event_queue.now_ms queue) config.max_time_ms
  in
  (match reg with
  | Some r ->
    Obs.Metrics.set_gauge r "sim.time_ms" time_ms;
    Obs.Metrics.set_gauge r "queue.pending_end" (float_of_int (Event_queue.pending queue));
    if twins <> None then Obs.Metrics.set_gauge r "twins.instances" (float_of_int (pn - n))
  | None -> ());
  (* The published decision table carries logical ids, so a twin's two
     halves appear as two rows under one identity. *)
  let decisions_list = List.init pn (fun p -> (to_logical p, List.rev !(decisions.(p)))) in
  (* Agreement comes from the online monitor alone: it compares every
     decision of an aligned node at decide time, and [aligned] only shrinks
     during a run, so no post-hoc sweep could find more. *)
  let safety_violation =
    Option.map (fun v -> v.Invariant.detail) (Invariant.first_violation monitor ~monitor:"agreement")
  in
  let stats = Network.stats network in
  {
    config;
    outcome = !outcome;
    time_ms;
    messages_sent = stats.Network.sent;
    bytes_sent = stats.Network.bytes;
    messages_dropped = !dropped;
    events_processed = Event_queue.popped queue;
    decisions = decisions_list;
    safety_ok = safety_violation = None;
    safety_violation;
    violations = Invariant.violations monitor;
    corrupted = List.sort compare !corrupted_order;
    per_decision_latency_ms = time_ms /. float_of_int config.decisions_target;
    per_decision_messages =
      float_of_int stats.Network.sent /. float_of_int config.decisions_target;
    final_views = views ();
    view_samples = List.rev !view_samples;
    trace;
    metrics = reg;
    spans = tracer;
  }

let throughput r =
  if r.time_ms <= 0. then 0.
  else float_of_int r.config.Config.decisions_target /. (r.time_ms /. 1000.)

let wall_clock_of_run config =
  let start = Unix.gettimeofday () in
  let result = run config in
  (Unix.gettimeofday () -. start, result)
