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

(* [Arrival] is a delivery popped from the arrival calendar (DESIGN.md §3.15);
   [Arrival_runs.current] and [current_dst] hold it.  [epoch]
   is the owner's incarnation when the alarm was armed: an alarm set before
   a restart must not fire into the fresh node.  Alarms owned by
   [Timer.attacker_owner] belong to the attacker and the controller itself.
   [Call] is a caller's one-shot alarm ({!schedule}: client arrivals, batch
   timers, the chaos steps): no timer, no id, as nobody cancels it and no
   lifecycle defers it, so an event built once can be armed again and
   again.  [armed_ms] is its arming instant, kept only when tracing. *)
type event =
  | Arrival
  | Deliver_verified of { msg : Message.t; dst : int }
  | Alarm of { timer : Timer.t; epoch : int }
  | Call of { tag : string; run : unit -> unit; armed_ms : float }

type alarm = event

let alarm ~tag run = Call { tag; run; armed_ms = 0. }

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

(* A run as a value: [create] returns these closures over the run's state,
   and the exports below apply them at full arity, so a call from another
   module allocates no partial application. *)
type t = {
  step : unit -> bool;
  finish : unit -> result;
  close : unit -> unit;
  arm : alarm -> float array -> unit;
  now_ms : unit -> float;
}

let create ?delay_override ?attacker:attacker_override ?context (config : Config.t) =
  Config.validate config;
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
  let arrivals = Arrival_runs.create queue ~arrival:Arrival in
  let now () = Event_queue.now queue in
  (* The boxed mirror, shared by every reader of one instant. *)
  let now_ms () = Time.to_ms (now ()) in
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
  (* Throughput extension (§III-A3): sequential per-node CPUs charged for
     signing, verification and WAL writes; zero costs short-circuit to the
     paper's cost-free behaviour. *)
  let cpus = Array.init pn (fun _ -> Cost_model.make_cpu ()) in
  let life = Lifecycle.create config ~cpus ~now_ms in
  let tel = Telemetry.create config ~now_ms ~restarts:(Lifecycle.durable life) in
  (* The log hooks are domain-local: a run re-installs its own whenever it
     is stepped, so runs stepped in turn on one domain each log with their
     own clock and trace into their own tracer. *)
  let hooks = Simlog.hooks ~now ?mirror:(Telemetry.mirror tel) () in
  Simlog.install hooks;
  let watching = Telemetry.watching tel in
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
  (* [None] while the run goes on. *)
  let outcome = ref None in
  let view_samples = ref [] in
  let attacker = match attacker_override with Some a -> a | None -> build_attacker config in
  (* Twin instances emulate a Byzantine identity: they are excluded from the
     decision target and from agreement — equivocation between the two
     halves is the attack, not the violation.  The violation the oracles
     look for is disagreement among the remaining honest nodes. *)
  let counted node = not (Lifecycle.gone life node || corrupted.(node) || twinned node) in
  (* Per-index agreement presumes complete logs; a node the plan crashes
     and restarts misses the decisions made while it was down (there is no
     state transfer), so only never-crashed nodes are index-aligned — and
     neither is an honest node a twins round cut off from a quorum, which
     misses the quorum side's decisions the same way. *)
  let aligned node =
    counted node
    && (not (Lifecycle.ever_down life node))
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
        Lifecycle.absent life node || Lifecycle.down life ~node ~at_ms)
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
        finished := Some (now_ms ());
        outcome := Some Reached_target
      end
    end
  in

  (* Every timer — protocol, reliable channel, attacker — is armed here. *)
  let arm_timer ~owner ~delay_ms ~tag payload =
    incr timer_counter;
    let id = !timer_counter in
    Dense_set.add pending_timers id;
    let deadline = Time.add_ms (now ()) (Float.max 0. delay_ms) in
    let timer = { Timer.id; owner; deadline; tag; payload } in
    Telemetry.alarm tel Telemetry.Armed timer;
    let epoch = if owner >= 0 then Lifecycle.incarnation life owner else 0 in
    Event_queue.schedule queue ~at:deadline (Alarm { timer; epoch });
    id
  in
  (* Every delivery enters the event queue here — wire sends, loss-model
     duplicates, reliable frames and acks, gossip hops, attacker
     injections — with its delay final, in [delay.(0)].  Replay overrides
     that delay by message id, in a cell of the controller's own so the
     caller's keeps its value, and a recorded trace keeps it under the same
     id. *)
  let own_delay = [| 0. |] in
  let deliver_at (msg : Message.t) ~dst ~id delay =
    let delay =
      match delay_override with
      | Some replay -> (
        match replay id with
        | Some d ->
          own_delay.(0) <- d;
          own_delay
        | None -> delay)
      | None -> delay
    in
    Telemetry.in_flight tel msg ~dst ~id delay;
    Arrival_runs.add arrivals msg ~dst delay
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
      set_timer = arm_timer ~owner:Timer.attacker_owner;
      inject =
        (fun ~src ~dst ~delay_ms ~tag ~size payload ->
          let msg = Message.envelope ~src ~sent_at:(now ()) ~tag ~size payload in
          let id = next_id () in
          Telemetry.message tel Telemetry.Injected msg ~dst;
          own_delay.(0) <- Float.max 0. delay_ms;
          deliver_at msg ~dst ~id own_delay);
      corrupt =
        (fun node ->
          if node < 0 || node >= n || corrupted.(node) then false
          else if List.length !corrupted_order >= f then false
          else begin
            corrupted.(node) <- true;
            corrupted_order := node :: !corrupted_order;
            Telemetry.corrupted tel node;
            true
          end);
      is_corrupted = (fun node -> node >= 0 && node < n && corrupted.(node));
      corrupted = (fun () -> List.sort compare !corrupted_order);
    }
  in

  let transport =
    Transport.create
      {
        Transport.config;
        network;
        rng = root_rng;
        now;
        lifecycle = life;
        cpus;
        (* The passthrough adversary lets everything through: the wire
           need not ask it. *)
        attack =
          (if attacker == Attack.Attacker.passthrough then None
           else Some (attacker.Attack.Attacker.attack attacker_env));
        next_id;
        deliver_at;
        arm_timer;
        telemetry = tel;
        dropped;
      }
  in

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
        (fun ~dst ~tag ~size payload -> transport.Transport.send ~src:p ~dst ~tag ~size payload);
      broadcast_raw =
        (fun ~include_self ~tag ~size payload ->
          transport.Transport.broadcast ~src:p ~include_self ~tag ~size payload);
      set_timer = arm_timer ~owner:p;
      cancel_timer =
        (fun id -> if Dense_set.mem pending_timers id then Dense_set.add cancelled id);
      decide =
        (fun value ->
          let at_ms = now_ms () in
          let index = decision_counts.(p) in
          decision_counts.(p) <- index + 1;
          decisions.(p) := value :: !(decisions.(p));
          Telemetry.decided tel ~node:p ~index value;
          Invariant.on_decide monitor ~node:p ~index ~value ~at_ms;
          if counted p then last_progress := Float.max !last_progress at_ms;
          check_target ());
      leader_schedule;
      (* The continuation runs at once with the protocol's own default; a
         client layer replaces this field through [?context]. *)
      request_proposal = (fun ~slot:_ ~width:_ ~default k -> ignore (k default : bool));
      pipeline_depth = config.Config.pipeline;
      durable = Lifecycle.durable life;
      persist = (fun ~key value -> Lifecycle.persist life p ~key value);
      recall = (fun ~key -> Lifecycle.recall life p ~key);
      on_caught_up =
        (fun () ->
          Option.iter (fun ms -> Telemetry.caught_up tel ~node:p ~ms) (Lifecycle.caught_up life p));
    }
  in

  let decorate = match context with Some f -> f | None -> Fun.id in
  let ctxs = Array.init pn (fun p -> decorate (make_ctx p)) in
  let nodes =
    Array.mapi (fun p ctx -> if Lifecycle.absent life p then None else Some (P.create ctx)) ctxs
  in

  (* Each node's view; -1 for config-crashed nodes, which never exist.  The
     telemetry-off path must not even call [P.view]. *)
  let views () = Array.map (function Some nd -> P.view nd | None -> -1) nodes in
  let handled node =
    if watching then
      match nodes.(node) with Some nd -> Telemetry.view tel ~node (P.view nd) | None -> ()
  in

  (* Periodic view sampling for the Fig. 9 analysis, on a controller alarm
     outside the timer bookkeeping. *)
  let sample_views_at deadline =
    let timer =
      { Timer.id = 0; owner = Timer.attacker_owner; deadline; tag = "sample-views"; payload = Sample_views }
    in
    Event_queue.schedule queue ~at:deadline (Alarm { timer; epoch = 0 })
  in

  (* At the protocol boundary a message comes from a logical sender: a twin
     half's traffic is indistinguishable from its co-twin's — that is the
     entire attack surface.  The shared envelope stays untouched for traces
     and the other recipients. *)
  let to_protocol (msg : Message.t) =
    if msg.Message.src < n then msg else { msg with Message.src = to_logical msg.Message.src }
  in
  (* The top of the stack: what every stage let through reaches the node. *)
  let deliver =
    transport.Transport.deliver (fun (msg : Message.t) ~dst ->
        match nodes.(dst) with
        | Some node ->
          Telemetry.message tel Telemetry.Delivered msg ~dst;
          P.on_message node ctxs.(dst) (to_protocol msg);
          handled dst
        | None -> ())
  in
  let node_alarm (timer : Timer.t) epoch =
    let id = timer.Timer.id and owner = timer.Timer.owner in
    (* A cancelled alarm is consumed as such even while its owner is down. *)
    let fate =
      if Dense_set.mem cancelled id then Lifecycle.Runs
      else Lifecycle.alarm life ~owner ~at_ms:(now_ms ())
    in
    match fate with
    | Lifecycle.Deferred restart_ms ->
      (* Deferred, not consumed: the id stays pending and cancellable. *)
      let deadline = Time.of_ms restart_ms in
      Event_queue.schedule queue ~at:deadline (Alarm { timer = { timer with Timer.deadline }; epoch })
    | Lifecycle.Lost ->
      Dense_set.remove pending_timers id;
      Telemetry.alarm tel Telemetry.Released timer
    | Lifecycle.Runs -> (
      if not (consume_timer id) then Telemetry.alarm tel Telemetry.Cancelled timer
      (* Transport alarms are exempt from the incarnation check: the channel
         survives restarts. *)
      else if transport.Transport.on_timer timer then ()
      else if epoch <> Lifecycle.incarnation life owner then
        (* Armed by a previous incarnation of a restarted node: the volatile
           state it referred to no longer exists. *)
        Telemetry.alarm tel Telemetry.Cancelled timer
      else
        match nodes.(owner) with
        | Some node ->
          Telemetry.alarm tel Telemetry.Fired_at_node timer;
          P.on_timer node ctxs.(owner) timer;
          handled owner
        | None -> Telemetry.alarm tel Telemetry.Released timer)
  in
  (* Crash-recovery restart: a fresh node object — all volatile state is
     gone; only the WAL and the transport state survive. *)
  let restart p =
    Lifecycle.restart life p;
    Telemetry.restarted tel p;
    let node = P.create ctxs.(p) in
    nodes.(p) <- Some node;
    P.on_restart node ctxs.(p);
    handled p
  in
  let apply_chaos = function
    | Attack.Fault_schedule.Gst_shift model ->
      Simlog.info "chaos: delay model shifts to %s" (Delay_model.describe model);
      Network.override_delay network model
    | action -> (
      Simlog.info "chaos: %s" (Attack.Fault_schedule.describe_action action);
      match action with Attack.Fault_schedule.Restart p -> restart p | _ -> ())
  in
  let controller_alarm (timer : Timer.t) =
    match timer.Timer.payload with
    | Sample_views ->
      view_samples := (now_ms (), views ()) :: !view_samples;
      sample_views_at (Time.add_ms timer.Timer.deadline (Option.get config.view_sample_ms))
    | _ ->
      if consume_timer timer.Timer.id then begin
        Telemetry.alarm tel Telemetry.Fired timer;
        attacker.Attack.Attacker.on_time_event attacker_env timer
      end
      else Telemetry.alarm tel Telemetry.Cancelled timer
  in
  let verify_ms = config.Config.costs.Cost_model.verify_ms in
  let handle = function
    | Arrival ->
      let msg = Arrival_runs.current arrivals and dst = Arrival_runs.current_dst arrivals in
      if dst >= 0 && dst < pn then
        if verify_ms > 0. && msg.Message.src <> dst then
          (* The receiver's CPU verifies the message before the stack sees
             it; contention shows up as extra queueing delay. *)
          let finish = Cost_model.charge cpus.(dst) ~now_ms:(now_ms ()) ~cost_ms:verify_ms in
          Event_queue.schedule queue ~at:(Time.of_ms finish) (Deliver_verified { msg; dst })
        else deliver msg ~dst
    | Deliver_verified { msg; dst } -> deliver msg ~dst
    | Alarm { timer; epoch } ->
      if timer.Timer.owner = Timer.attacker_owner then controller_alarm timer
      else node_alarm timer epoch
    | Call { tag; run; armed_ms } ->
      Telemetry.call_fired tel ~tag ~armed_ms;
      run ()
  in
  (* Dispatch spans: named after the handler the event reaches. *)
  let msg_label (m : Message.t) dst = ("on_msg:" ^ m.Message.tag, dst) in
  let label = function
    | Arrival -> msg_label (Arrival_runs.current arrivals) (Arrival_runs.current_dst arrivals)
    | Deliver_verified { msg; dst; _ } -> msg_label msg dst
    | Alarm { timer = t; _ } ->
      let kind = if t.Timer.owner = Timer.attacker_owner then "attacker:" else "on_time:" in
      (kind ^ t.Timer.tag, t.Timer.owner)
    | Call { tag; _ } -> ("attacker:" ^ tag, Timer.attacker_owner)
  in

  (* Liveness watchdog: the simulation has stalled when the clock has run
     [k * lambda] past the last decision by a counted node.  While the fault
     plan still has steps ahead (a pending recovery, heal or GST shift) the
     watchdog holds its fire — the scenario is still unfolding and relief
     may be scheduled — and the last step resets the stall clock. *)
  let last_chaos_ms =
    let chaos_last =
      List.fold_left Float.max Float.neg_infinity
        (Attack.Fault_schedule.step_times (Lifecycle.plan life))
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
  (* A caller's alarm takes its sequence number here, when it is armed, as
     a timer does. *)
  let tracing = Telemetry.tracer tel <> None in
  let arm ev delay =
    Telemetry.call_armed tel;
    let ev =
      match ev with
      | Call c when tracing -> Call { c with armed_ms = now_ms () }
      | ev -> ev
    in
    Event_queue.schedule_in queue delay ev
  in

  (* One alarm per chaos step, armed before the attacker's so a step runs
     ahead of any attacker alarm due at the same instant.  The alarms also
     keep the queue alive up to the last step, so a recovery is observed
     even when every message in flight was dropped. *)
  List.iter
    (fun s ->
      arm
        (alarm ~tag:"chaos" (fun () -> apply_chaos s.Attack.Fault_schedule.action))
        [| s.Attack.Fault_schedule.at_ms |])
    (Lifecycle.plan life);
  attacker.Attack.Attacker.on_start attacker_env;
  (* The nodes start at the first step (or at [finish]), after the caller's
     own alarms: a client's first arrival is armed before any proposal
     request reaches it. *)
  let started = ref false in
  let start () =
    started := true;
    Array.iteri (fun i node -> match node with Some nd -> P.on_start nd ctxs.(i) | None -> ()) nodes;
    if watching then Telemetry.watch_views tel (views ());
    Option.iter (fun period -> sample_views_at (Time.of_ms period)) config.view_sample_ms
  in
  let stop o =
    outcome := Some o;
    false
  in
  let step () =
    Simlog.install hooks;
    if not !started then start ();
    match !outcome with
    | Some _ -> false
    | None ->
      if Event_queue.popped queue >= config.max_events then stop Event_cap
      else if Arrival_runs.is_empty arrivals then stop Queue_drained
      else
        (* Allocation-free pop: take the event alone, instead of boxing a
           (time, event) option per event, and compare the advanced clock
           inside the queue, as reading it here would box a float.
           [limit] is positive, so overdue since the later of the last
           progress and the last chaos step is also past the step. *)
        let ev = Arrival_runs.next_exn arrivals in
        if Event_queue.past queue config.max_time_ms then stop Timed_out
        else begin
          match watchdog_ms with
          | Some limit
            when Event_queue.overdue queue ~since:(Float.max !last_progress last_chaos_ms) ~limit ->
            Simlog.info "watchdog: no progress since %g ms, aborting at %g ms" !last_progress
              (now_ms ());
            stop (Stalled { last_progress_ms = !last_progress })
          | _ ->
            Telemetry.dispatched tel label handle ev;
            true
        end
  in
  (* A cancellation or crash escaping the run must not leave the mirror
     pointing into this run's dead tracer for whatever logs next on the
     domain. *)
  let close () = Simlog.uninstall hooks in
  let finish () =
    Simlog.install hooks;
    if not !started then start ();
    let time_ms =
      match !finished with
      | Some at -> at
      | None -> Float.min (now_ms ()) config.max_time_ms
    in
    Telemetry.finish tel ~time_ms ~pending_events:(Arrival_runs.pending arrivals)
      ~twin_instances:(Option.map (fun _ -> pn - n) twins);
    Simlog.debug "run ended at %g ms: %d alarms pending, %d timer spans open" time_ms
      (Dense_set.cardinal pending_timers) (Telemetry.open_timer_spans tel);
    close ();
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
      (* A caller that stops stepping early leaves the run short of its end:
         the same as running out of events. *)
      outcome = Option.value !outcome ~default:Event_cap;
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
      trace = Telemetry.trace tel;
      metrics = Telemetry.metrics tel;
      spans = Telemetry.tracer tel;
    }
  in
  { step; finish; close; arm; now_ms }

let step t = t.step ()

let finish t = t.finish ()

let close t = t.close ()

let arm t ev delay = t.arm ev delay

let schedule t ~tag ~delay_ms f = t.arm (alarm ~tag f) [| delay_ms |]

let now_ms t = t.now_ms ()

let run ?delay_override ?attacker ?context config =
  let t = create ?delay_override ?attacker ?context config in
  let rec loop () = if step t then loop () in
  Fun.protect ~finally:(fun () -> close t) loop;
  finish t

let throughput r =
  if r.time_ms <= 0. then 0.
  else float_of_int r.config.Config.decisions_target /. (r.time_ms /. 1000.)

let wall_clock_of_run config =
  let start = Unix.gettimeofday () in
  let result = run config in
  (Unix.gettimeofday () -. start, result)
