open Bftsim_sim
open Bftsim_net
module Metrics = Bftsim_obs.Metrics
module Tracer = Bftsim_obs.Tracer

(* The registry holds only simulated quantities, so [Runner.run_many]'s
   merge is identical whatever domain pool executed the runs; wall-clock
   attribution lives in the tracer.  With both switches off every event
   below is a store into a dead cell or a flag test. *)
type t = {
  trace : Trace.t option;
  metrics : Metrics.t option;
  tracer : Tracer.t option;
  tracing : bool;
  now_ms : unit -> float;
  (* Arming instant of each alarm not yet consumed, kept only when tracing:
     timer spans run from arming to firing. *)
  armed_at : (int, float) Hashtbl.t;
  mutable last_views : int array;
  c_delivered : int ref;
  c_injected : int ref;
  c_timer_set : int ref;
  c_timer_fired : int ref;
  c_timer_cancelled : int ref;
  c_decisions : int ref;
  c_view_changes : int ref;
  c_corruptions : int ref;
  c_events : int ref;
  h_catchup : Metrics.histogram option;
}

let counter t name =
  match t.metrics with Some r -> Metrics.counter r name | None -> Metrics.null_counter ()

(* Histogram observes mutate boxed-float fields, so unlike the dead
   counters they allocate; without a registry there is no histogram. *)
let histogram t ?buckets name = Option.map (fun r -> Metrics.histogram ?buckets r name) t.metrics

let instant t ?args ~name ~cat ~node () =
  match t.tracer with
  | Some tr -> Tracer.instant tr ?args ~name ~cat ~node ~ts_us:(t.now_ms () *. 1000.) ()
  | None -> ()

let span tr ?args ~name ~cat ~node ~ts_ms ~dur_ms () =
  Tracer.span tr ?args ~name ~cat ~node ~ts_us:(ts_ms *. 1000.) ~dur_us:(dur_ms *. 1000.) ()

let create (config : Config.t) ~now_ms ~restarts =
  let tel = config.Config.telemetry in
  let metrics = if tel.Config.metrics then Some (Metrics.create ()) else None in
  let tracer =
    if tel.Config.tracing then Some (Tracer.create ~capacity:tel.Config.trace_capacity ()) else None
  in
  let dead = Metrics.null_counter () in
  let ctr name = match metrics with Some r -> Metrics.counter r name | None -> dead in
  let t =
    {
      trace = (if config.Config.record_trace then Some (Trace.create ()) else None);
      metrics;
      tracer;
      tracing = tracer <> None;
      now_ms;
      armed_at = Hashtbl.create 64;
      last_views = [||];
      c_delivered = ctr "net.delivered";
      c_injected = ctr "net.injected";
      c_timer_set = ctr "timer.set";
      c_timer_fired = ctr "timer.fired";
      c_timer_cancelled = ctr "timer.cancelled";
      c_decisions = ctr "protocol.decisions";
      c_view_changes = ctr "protocol.view_changes";
      c_corruptions = ctr "attacker.corruptions";
      c_events = ctr "sim.events";
      h_catchup = None;
    }
  in
  (* Restart-to-caught-up latency; present only when the plan restarts. *)
  if restarts then { t with h_catchup = histogram t "recovery.catchup_ms" } else t

(* Warnings and errors are mirrored onto the trace timeline so anomalies
   appear next to the events that caused them. *)
let mirror t =
  if not t.tracing then None
  else
    Some
      (fun ~level s ->
        let name =
          match level with Logs.Error -> "error" | Logs.Warning -> "warning" | _ -> "log"
        in
        instant t ~name ~cat:"log" ~node:(-1) ~args:[ ("msg", Tracer.Str s) ] ())

let trace t = t.trace

let metrics t = t.metrics

let tracer t = t.tracer

let watching t = t.metrics <> None || t.tracing

let row t kind ~node ~peer ~tag ~detail =
  match t.trace with
  | Some tr -> Trace.record tr { at_ms = t.now_ms (); kind; node; peer; tag; detail }
  | None -> ()

type message = Sent | Injected | Delivered | Dropped | Lost | Lost_at_down_node

(* A delivery entering the event queue: its final delay goes to the replay
   table, and its span runs from send to arrival on the receiver's track;
   the simulated timestamps make it line up with dispatch spans in the
   Chrome/Perfetto rendering.  The delay comes in its cell and is read only
   when something records it, so a run that records nothing boxes no
   float here. *)
let in_flight t (m : Message.t) ~dst ~id (delay : float array) =
  (match t.trace with Some tr -> Trace.record_delay tr ~id delay.(0) | None -> ());
  match t.tracer with
  | Some tr ->
    span tr ~name:m.tag ~cat:"net" ~node:dst ~ts_ms:(Time.to_ms m.sent_at) ~dur_ms:delay.(0)
      ~args:[ ("src", Tracer.Int m.src); ("size", Tracer.Int m.size) ]
      ()
  | None -> ()

(* Payload rendering is the costliest allocation on the send path: only
   when a trace is actually recorded. *)
let payload_row t kind (m : Message.t) ~node ~peer =
  match t.trace with
  | Some _ -> row t kind ~node ~peer ~tag:m.tag ~detail:(Message.payload_to_string m.payload)
  | None -> ()

let discard t (m : Message.t) ~dst name kind detail =
  if t.tracing then
    instant t ~name:(name ^ m.tag) ~cat:"net" ~node:m.src ~args:[ ("dst", Tracer.Int dst) ] ();
  row t kind ~node:m.src ~peer:dst ~tag:m.tag ~detail

let message t what (m : Message.t) ~dst =
  match what with
  | Sent -> payload_row t Trace.Send m ~node:m.src ~peer:dst
  | Injected ->
    incr t.c_injected;
    row t Trace.Send ~node:m.src ~peer:dst ~tag:m.tag ~detail:"<injected>"
  | Delivered ->
    incr t.c_delivered;
    payload_row t Trace.Deliver m ~node:dst ~peer:m.src
  | Dropped -> discard t m ~dst "drop:" Trace.Drop ""
  | Lost -> discard t m ~dst "loss:" Trace.Drop "loss"
  | Lost_at_down_node -> discard t m ~dst "lost:" Trace.Lost ""

let gave_up t ~src ~dst ~tag = row t Trace.Drop ~node:src ~peer:dst ~tag ~detail:"rc-give-up"

type alarm = Armed | Fired | Fired_at_node | Cancelled | Released

let alarm t what (timer : Timer.t) =
  let id = timer.id and owner = timer.owner and tag = timer.tag in
  match what with
  | Armed ->
    incr t.c_timer_set;
    if t.tracing then Hashtbl.replace t.armed_at id (t.now_ms ())
  | Fired | Fired_at_node -> (
    incr t.c_timer_fired;
    (match t.tracer with
    | Some tr ->
      let now_ms = t.now_ms () in
      let set_ms = Option.value ~default:now_ms (Hashtbl.find_opt t.armed_at id) in
      Hashtbl.remove t.armed_at id;
      span tr ~name:("timer:" ^ tag) ~cat:"timer" ~node:owner ~ts_ms:set_ms
        ~dur_ms:(now_ms -. set_ms) ()
    | None -> ());
    match what with
    | Fired_at_node -> row t Trace.Timer_fired ~node:owner ~peer:(-1) ~tag ~detail:""
    | _ -> ())
  | Cancelled ->
    incr t.c_timer_cancelled;
    if t.tracing then begin
      Hashtbl.remove t.armed_at id;
      instant t ~name:("cancel:" ^ tag) ~cat:"timer" ~node:owner ()
    end
  | Released -> if t.tracing then Hashtbl.remove t.armed_at id

(* A caller's alarm carries no timer and no id: nobody cancels it, so it
   only counts, and its span's start comes with it. *)
let call_armed t = incr t.c_timer_set

let call_fired t ~tag ~armed_ms =
  incr t.c_timer_fired;
  match t.tracer with
  | Some tr ->
    let now_ms = t.now_ms () in
    span tr ~name:("timer:" ^ tag) ~cat:"timer" ~node:Timer.attacker_owner ~ts_ms:armed_ms
      ~dur_ms:(now_ms -. armed_ms) ()
  | None -> ()

let open_timer_spans t = Hashtbl.length t.armed_at

let decided t ~node ~index value =
  incr t.c_decisions;
  if t.tracing then
    instant t ~name:"decide" ~cat:"protocol" ~node
      ~args:[ ("index", Tracer.Int index); ("value", Tracer.Str value) ]
      ();
  row t Trace.Decide ~node ~peer:(-1) ~tag:value ~detail:""

(* View changes: a node's view compared after each of its handlers.  Views
   derive from simulated execution only, so both the counter and the
   instants are replication-deterministic. *)
let watch_views t views = t.last_views <- views

let view t ~node v =
  if v <> t.last_views.(node) then begin
    t.last_views.(node) <- v;
    incr t.c_view_changes;
    if t.tracing then
      instant t ~name:"view-change" ~cat:"protocol" ~node ~args:[ ("view", Tracer.Int v) ] ()
  end

let restarted t node = instant t ~name:"restart" ~cat:"recovery" ~node ()

let caught_up t ~node ~ms =
  Option.iter (fun h -> Metrics.observe_h h ms) t.h_catchup;
  if t.tracing then
    instant t ~name:"caught-up" ~cat:"recovery" ~node ~args:[ ("ms", Tracer.Float ms) ] ();
  Simlog.info "node %d caught up %.1f ms after restart" node ms

let corrupted t node =
  incr t.c_corruptions;
  instant t ~name:"corrupt" ~cat:"attacker" ~node ();
  Simlog.info "attacker corrupts node %d" node

(* Per-phase profiling: each handled event becomes a span at its simulated
   instant carrying the host-time cost of its handler as an argument —
   wall clock stays out of the registry (see the determinism rule). *)
let dispatched t label handle ev =
  incr t.c_events;
  match t.tracer with
  | None -> handle ev
  | Some tr ->
    let now_ms = t.now_ms () in
    let w0 = Unix.gettimeofday () in
    handle ev;
    let wall_dur_us = (Unix.gettimeofday () -. w0) *. 1e6 in
    let name, node = label ev in
    span tr ~name ~cat:"sim" ~node ~ts_ms:now_ms ~dur_ms:0.
      ~args:[ ("wall_dur_us", Tracer.Float wall_dur_us) ]
      ()

let finish t ~time_ms ~pending_events ~twin_instances =
  Option.iter
    (fun r ->
      Metrics.set_gauge r "sim.time_ms" time_ms;
      Metrics.set_gauge r "queue.pending_end" (float_of_int pending_events);
      Option.iter (fun k -> Metrics.set_gauge r "twins.instances" (float_of_int k)) twin_instances)
    t.metrics
