(* Workload driver (DESIGN.md §3.16): wires arrivals, the mempool and the
   batcher into a run as a client of the controller — it decorates each
   node's context and arms its own alarms on the run's clock — measures
   end-to-end request latency (arrival → commit quorum), and sweeps offered
   rates into a throughput-latency curve.

   Determinism: the harness owns a private RNG derived from the config
   seed — it never touches the controller's split chain, so a run with the
   workload enabled perturbs nothing but its own events, and a run without
   it is bit-identical to older builds.  Sweep points are independent runs
   aggregated in rate order, so the curve is byte-identical at any
   [--jobs].

   Goodput accounting (PR 9): a leader continuation that fires stale — the
   view moved on before the batch was cut — returns [false], and the batch
   is re-queued at the front of the mempool instead of dropped, so churny
   runs measure true goodput.  Alongside the open-loop arrivals there is a
   closed-loop client mode (a fixed population each keeping [cap] requests
   in flight; the sweep variable is the population size), and requests
   carry contention keys (see {!Keys}) so commit-order conflicts can be
   modeled. *)

open Bftsim_sim
module Core = Bftsim_core
module Context = Bftsim_protocols.Context
module Json = Bftsim_obs.Json
module Metrics = Bftsim_obs.Metrics

type clients = Open_loop | Closed_loop of { cap : int }

let clients_to_cli_string = function
  | Open_loop -> "open"
  | Closed_loop { cap } -> Printf.sprintf "closed:%d" cap

let clients_of_string s =
  match s with
  | "open" -> Ok Open_loop
  | _ -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "closed" -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some cap when cap > 0 -> Ok (Closed_loop { cap })
      | Some _ | None -> Error (Printf.sprintf "invalid client mode %S (cap must be > 0)" s))
    | _ -> Error (Printf.sprintf "invalid client mode %S" s))

type t = {
  arrival : Arrival.t;
  policy : Batch.policy;
  mempool_capacity : int;
  clients : clients;
  keys : Keys.t;
}

let make ?(arrival = Arrival.poisson ~rate:100.) ?(policy = Batch.default)
    ?(mempool_capacity = 4096) ?(clients = Open_loop) ?(keys = Keys.Single) () =
  if mempool_capacity <= 0 then invalid_arg "Driver.make: mempool_capacity must be > 0";
  (match clients with
  | Open_loop -> ()
  | Closed_loop { cap } -> if cap <= 0 then invalid_arg "Driver.make: client cap must be > 0");
  Keys.validate keys;
  { arrival; policy; mempool_capacity; clients; keys }

let describe t =
  let base =
    match t.clients with
    | Open_loop -> Arrival.describe t.arrival
    | Closed_loop { cap } -> Printf.sprintf "closed-loop(cap=%d)" cap
  in
  let keys = match t.keys with Keys.Single -> "" | k -> " keys=" ^ Keys.describe k in
  Printf.sprintf "%s %s mempool=%d%s" base (Batch.describe t.policy) t.mempool_capacity keys

(* {1 One run} *)

(* Per-run harness state, closed over by the context wrappers. *)
type harness = {
  rng : Rng.t;
  pool : Mempool.t;
  policy : Batch.policy;
  arrival : Arrival.t;
  clients : clients;
  client_count : int;  (* closed-loop population; 0 in open loop *)
  keys_sampler : Keys.sampler;
  keyed : bool;  (* false = Single mode: skip conflict accounting *)
  ack_quorum : int;
  mutable next_request : int;
  mutable submitted : int;
  mutable next_batch : int;
  batches : (string, Mempool.request list) Hashtbl.t;  (* in-flight value -> requests *)
  mutable batch_log : (string * int list) list;  (* every bundle ever cut, newest first *)
  acks : (int, int ref) Hashtbl.t;  (* decision index -> distinct-node ack count *)
  committed_idx : (int, unit) Hashtbl.t;
  req_committed : (int, unit) Hashtbl.t;  (* committed request ids *)
  requeue_counts : (int, int) Hashtbl.t;  (* id -> times re-queued *)
  mutable committed : int;
  mutable committed_ids : int list;  (* newest first *)
  mutable key_conflicts : int;
  mutable last_key : int;  (* key of the previously committed request *)
  mutable latencies : float list;  (* newest first *)
  mutable occupancies : int list;  (* newest first; 0 = empty (no-op) batch *)
  mutable empty_batches : int;
  (* Deferred leader requests, with the pipeline width each asked for. *)
  waiting : (int * (Context.proposal -> bool)) Queue.t;
  mutable waiting_armed : int;  (* timers in flight for deferred requests *)
}

let create_harness ~seed ~n ~rate (t : t) =
  let f = (n - 1) / 3 in
  let client_count =
    match t.clients with Open_loop -> 0 | Closed_loop _ -> Stdlib.max 1 (int_of_float rate)
  in
  let capacity =
    (* Closed loops bound their own in-flight population; admission control
       on top would just deadlock clients whose requests were rejected. *)
    match t.clients with
    | Open_loop -> t.mempool_capacity
    | Closed_loop { cap } -> Stdlib.max t.mempool_capacity (client_count * cap)
  in
  {
    (* Private stream: xor with an ASCII-"load" constant so it cannot
       collide with the controller's root/net/attacker/node split order. *)
    rng = Rng.create (seed lxor 0x6c6f6164);
    pool = Mempool.create ~capacity;
    policy = t.policy;
    arrival = t.arrival;
    clients = t.clients;
    client_count;
    keys_sampler = Keys.sampler t.keys;
    keyed = (match t.keys with Keys.Single -> false | _ -> true);
    ack_quorum = f + 1;
    next_request = 0;
    submitted = 0;
    next_batch = 0;
    batches = Hashtbl.create 64;
    batch_log = [];
    acks = Hashtbl.create 64;
    committed_idx = Hashtbl.create 64;
    req_committed = Hashtbl.create 256;
    requeue_counts = Hashtbl.create 16;
    committed = 0;
    committed_ids = [];
    key_conflicts = 0;
    last_key = Stdlib.min_int;
    latencies = [];
    occupancies = [];
    empty_batches = 0;
    waiting = Queue.create ();
    waiting_armed = 0;
  }

(* Return a stale bundle's requests to the front of the mempool.  The
   continuation never broadcast the proposal, so none of these can have
   committed — the filter is the promised dedup guard: a request id is
   never simultaneously pending and committed. *)
let requeue_stale h value =
  match Hashtbl.find_opt h.batches value with
  | None -> ()
  | Some reqs ->
    Hashtbl.remove h.batches value;
    let reqs =
      List.filter (fun (r : Mempool.request) -> not (Hashtbl.mem h.req_committed r.id)) reqs
    in
    List.iter
      (fun (r : Mempool.request) ->
        Hashtbl.replace h.requeue_counts r.id
          (1 + Option.value ~default:0 (Hashtbl.find_opt h.requeue_counts r.id)))
      reqs;
    Mempool.requeue h.pool reqs

(* Cut a bundle now: drain up to [width] chunks of up to [max_batch]
   requests each and hand the leader a value naming them all — chained
   protocols carry their whole pipeline window in one block, so the bundle
   is one proposal ("b12(256)+b13(44)"); [width = 1] degenerates to the
   single-chunk value PBFT-style slot windows use.  An empty pool yields
   the protocol's default (no-op) proposal so an idle system still
   advances heights.  If the continuation reports the proposal unused
   (stale view), the whole bundle is re-queued. *)
let cut h ~width ~default k =
  let width = Stdlib.max 1 width in
  let rec take_chunks names reqss w =
    if w = 0 then (List.rev names, List.rev reqss)
    else
      match Mempool.take h.pool ~max:h.policy.Batch.max_batch with
      | [] -> (List.rev names, List.rev reqss)
      | reqs ->
        let count = List.length reqs in
        let seq = h.next_batch in
        h.next_batch <- seq + 1;
        h.occupancies <- count :: h.occupancies;
        take_chunks (Printf.sprintf "b%d(%d)" seq count :: names) (reqs :: reqss) (w - 1)
  in
  let names, reqss = take_chunks [] [] width in
  match names with
  | [] ->
    h.empty_batches <- h.empty_batches + 1;
    h.occupancies <- 0 :: h.occupancies;
    ignore (k default : bool)
  | _ ->
    let value = String.concat "+" names in
    let reqs = List.concat reqss in
    Hashtbl.replace h.batches value reqs;
    h.batch_log <- (value, List.map (fun (r : Mempool.request) -> r.id) reqs) :: h.batch_log;
    let size =
      List.fold_left (fun acc rs -> acc + Batch.size_bytes ~count:(List.length rs)) 0 reqss
    in
    if not (k { Context.value; size }) then requeue_stale h value

(* Fire deferred leader requests while a full batch is available — the
   early-cut rule; the max-wait timer handles the rest. *)
let fire_ready h ~default_of =
  while
    (not (Queue.is_empty h.waiting)) && Mempool.length h.pool >= h.policy.Batch.max_batch
  do
    let width, k = Queue.pop h.waiting in
    cut h ~width ~default:(default_of ()) k
  done

let on_request_proposal h ctl ~width ~default k =
  if Mempool.length h.pool >= h.policy.Batch.max_batch || h.policy.Batch.max_wait_ms <= 0. then
    cut h ~width ~default k
  else begin
    (* Defer until the wait window closes (or a full batch arrives first).
       The timer pops whichever request is oldest; queue discipline keeps
       the pairing FIFO even when cuts race with arrivals. *)
    Queue.add (width, k) h.waiting;
    h.waiting_armed <- h.waiting_armed + 1;
    Core.Controller.schedule ctl ~tag:"workload" ~delay_ms:h.policy.Batch.max_wait_ms (fun () ->
        h.waiting_armed <- h.waiting_armed - 1;
        if not (Queue.is_empty h.waiting) then begin
          let width, k = Queue.pop h.waiting in
          cut h ~width ~default k
        end)
  end

(* The key is drawn for every arrival, so the stream does not depend on
   the pool's state; a request the full pool drops is never built. *)
let submit h ~now_ms ~client =
  let id = h.next_request in
  h.next_request <- id + 1;
  h.submitted <- h.submitted + 1;
  let key = Keys.sample h.keys_sampler h.rng in
  if Mempool.full h.pool then Mempool.reject h.pool
  else ignore (Mempool.add h.pool { Mempool.id; arrived_ms = now_ms; key; client } : bool);
  fire_ready h ~default_of:(fun () ->
      (* An early cut always finds a full pool, so the default is never
         consulted; a placeholder keeps the types honest. *)
      { Context.value = "noop"; size = Batch.size_bytes ~count:0 })

let on_commit h ctl ~index ~value ~at_ms =
  if not (Hashtbl.mem h.committed_idx index) then begin
    let count =
      match Hashtbl.find_opt h.acks index with
      | Some r ->
        incr r;
        !r
      | None ->
        Hashtbl.replace h.acks index (ref 1);
        1
    in
    if count >= h.ack_quorum then begin
      Hashtbl.replace h.committed_idx index ();
      Hashtbl.remove h.acks index;
      match Hashtbl.find_opt h.batches value with
      | None -> ()  (* no-op height or foreign value: no requests to ack *)
      | Some reqs ->
        Hashtbl.remove h.batches value;
        List.iter
          (fun (r : Mempool.request) ->
            h.committed <- h.committed + 1;
            Hashtbl.replace h.req_committed r.Mempool.id ();
            h.committed_ids <- r.Mempool.id :: h.committed_ids;
            if h.keyed then begin
              if r.Mempool.key = h.last_key then h.key_conflicts <- h.key_conflicts + 1;
              h.last_key <- r.Mempool.key
            end;
            h.latencies <- (at_ms -. r.Mempool.arrived_ms) :: h.latencies;
            (* Closed loop: the committing client immediately (zero think
               time) submits its next request, through the event queue so
               the replacement interleaves deterministically. *)
            if r.Mempool.client >= 0 then
              Core.Controller.schedule ctl ~tag:"workload" ~delay_ms:0. (fun () ->
                  submit h ~now_ms:(Core.Controller.now_ms ctl) ~client:r.Mempool.client))
          reqs
    end
  end

(* Arms the clients before the run's first step, so a leader's first
   proposal request already finds the harness listening. *)
let start h ctl =
  match h.clients with
  | Closed_loop { cap } ->
    (* The whole population submits its full window at t = 0; afterwards
       each commit triggers that client's next request. *)
    let now_ms = Core.Controller.now_ms ctl in
    for client = 0 to h.client_count - 1 do
      for _ = 1 to cap do
        submit h ~now_ms ~client
      done
    done
  | Open_loop ->
    (* One alarm for the whole run, re-armed after each arrival, which
       reads the clock once and draws its gap into a cell. *)
    let gap = [| 0. |] in
    let rec pump now_ms =
      Arrival.next_gap_into h.arrival ~now_ms h.rng gap;
      Core.Controller.arm ctl (Lazy.force alarm) gap
    and arrive () =
      let now_ms = Core.Controller.now_ms ctl in
      submit h ~now_ms ~client:(-1);
      pump now_ms
    and alarm = lazy (Core.Controller.alarm ~tag:"workload" arrive) in
    pump (Core.Controller.now_ms ctl)

(* One node's context as the workload sees it: proposal requests go to the
   batcher, and every decide is an ack toward a commit quorum, indexed by
   this node's own decision count, as the controller indexes it.  [ctl] is
   the run being built; the wrappers only force it once it runs. *)
let decorate h ctl (c : Context.t) =
  let decided = ref 0 in
  {
    c with
    Context.request_proposal =
      (fun ~slot:_ ~width ~default k -> on_request_proposal h (Lazy.force ctl) ~width ~default k);
    decide =
      (fun value ->
        c.Context.decide value;
        let index = !decided in
        decided := index + 1;
        on_commit h (Lazy.force ctl) ~index ~value ~at_ms:(Time.to_ms (c.Context.now ())));
  }

(* {1 Points} *)

type point = {
  rate : float;
  outcome : string;
  duration_ms : float;
  submitted : int;
  committed : int;
  dropped : int;
  requeued : int;
  in_flight : int;
  pending : int;
  key_conflicts : int;
  mempool_peak : int;
  batches : int;
  empty_batches : int;
  occupancy_mean : float;
  throughput : float;
  latency : Core.Stats.t option;
}

let point_to_json p =
  Json.Assoc
    ([
       ("rate", Json.Float p.rate);
       ("outcome", Json.String p.outcome);
       ("duration_ms", Json.Float p.duration_ms);
       ("submitted", Json.Int p.submitted);
       ("committed", Json.Int p.committed);
       ("dropped", Json.Int p.dropped);
       ("requeued", Json.Int p.requeued);
       ("in_flight", Json.Int p.in_flight);
       ("pending", Json.Int p.pending);
       ("key_conflicts", Json.Int p.key_conflicts);
       ("mempool_peak", Json.Int p.mempool_peak);
       ("batches", Json.Int p.batches);
       ("empty_batches", Json.Int p.empty_batches);
       ("occupancy_mean", Json.Float p.occupancy_mean);
       ("throughput", Json.Float p.throughput);
     ]
    @
    match p.latency with
    | None -> []
    | Some s ->
      [
        ( "latency",
          Json.Assoc
            [
              ("count", Json.Int s.Core.Stats.count);
              ("mean", Json.Float s.Core.Stats.mean);
              ("stddev", Json.Float s.Core.Stats.stddev);
              ("min", Json.Float s.Core.Stats.min);
              ("max", Json.Float s.Core.Stats.max);
              ("median", Json.Float s.Core.Stats.median);
              ("p95", Json.Float s.Core.Stats.p95);
              ("p99", Json.Float s.Core.Stats.p99);
            ] );
      ])

let ( let* ) r f = Result.bind r f

let j_field = Json.field ~what:"load point"

let j_num = Json.number_field ~what:"load point"

let j_int = Json.int_field ~what:"load point"

let j_string = Json.string_field ~what:"load point"

let point_of_json json =
  let* rate = j_num "rate" json in
  let* outcome = j_string "outcome" json in
  let* duration_ms = j_num "duration_ms" json in
  let* submitted = j_int "submitted" json in
  let* committed = j_int "committed" json in
  let* dropped = j_int "dropped" json in
  let* requeued = j_int "requeued" json in
  let* in_flight = j_int "in_flight" json in
  let* pending = j_int "pending" json in
  let* key_conflicts = j_int "key_conflicts" json in
  let* mempool_peak = j_int "mempool_peak" json in
  let* batches = j_int "batches" json in
  let* empty_batches = j_int "empty_batches" json in
  let* occupancy_mean = j_num "occupancy_mean" json in
  let* throughput = j_num "throughput" json in
  let* latency =
    match Json.member "latency" json with
    | None -> Ok None
    | Some s ->
      let* count = j_int "count" s in
      let* mean = j_num "mean" s in
      let* stddev = j_num "stddev" s in
      let* min = j_num "min" s in
      let* max = j_num "max" s in
      let* median = j_num "median" s in
      let* p95 = j_num "p95" s in
      let* p99 = j_num "p99" s in
      Ok (Some { Core.Stats.count; mean; stddev; min; max; median; p95; p99 })
  in
  Ok
    {
      rate;
      outcome;
      duration_ms;
      submitted;
      committed;
      dropped;
      requeued;
      in_flight;
      pending;
      key_conflicts;
      mempool_peak;
      batches;
      empty_batches;
      occupancy_mean;
      throughput;
      latency;
    }

(* Live points pass through the JSON codec once, so a point computed now
   and the same point resumed from a journal are structurally equal — the
   byte-identity contract the campaign journal established for digests. *)
let canonical_point p =
  match Result.bind (Json.of_string (Json.to_string (point_to_json p))) point_of_json with
  | Ok p' -> p'
  | Error _ -> p

(* Post-run injection of the workload cells into the run's registry, so
   [--metrics] output and cross-point merges carry the mempool/batching
   telemetry next to the controller's own. *)
let inject_metrics reg (h : harness) ~throughput ~in_flight =
  Metrics.incr ~by:h.submitted reg "wl.submitted";
  Metrics.incr ~by:h.committed reg "wl.committed";
  Metrics.incr ~by:(Mempool.dropped h.pool) reg "wl.dropped";
  Metrics.incr ~by:(Mempool.requeued h.pool) reg "wl.requeued";
  Metrics.incr ~by:h.key_conflicts reg "wl.key_conflicts";
  Metrics.incr ~by:h.empty_batches reg "wl.empty_batches";
  Metrics.set_gauge reg "wl.mempool_peak" (float_of_int (Mempool.peak h.pool));
  Metrics.set_gauge reg "wl.in_flight" (float_of_int in_flight);
  Metrics.set_gauge reg "wl.committed_per_s" throughput;
  let occ = Metrics.histogram reg "wl.batch_occupancy" in
  List.iter (fun c -> Metrics.observe_h occ (float_of_int c)) (List.rev h.occupancies);
  let lat = Metrics.histogram reg "wl.request_latency_ms" in
  List.iter (fun l -> Metrics.observe_h lat l) (List.rev h.latencies)

(* End-of-run accounting (audited by test/test_workload.ml): every
   submitted request is exactly one of committed, dropped, pending in the
   pool, or in an in-flight batch — re-queues move requests between the
   last two states without losing or duplicating them. *)
type audit = {
  committed_ids : int list;  (** In commit order. *)
  requeued_ids : (int * int) list;  (** (id, times re-queued), by id. *)
  pending_ids : int list;  (** Left in the pool at run end, service order. *)
  in_flight_ids : int list;  (** In uncommitted batches at run end, by id. *)
  batch_log : (string * int list) list;  (** Every bundle cut, oldest first. *)
}

(* One run at one offered rate: the point, the harness it leaves and the
   controller's result.  The in-flight count walks the batch table without
   building the id list the audit keeps. *)
let run (t : t) ~rate (config : Core.Config.t) =
  let t = { t with arrival = Arrival.with_rate t.arrival rate } in
  let h = create_harness ~seed:config.Core.Config.seed ~n:config.Core.Config.n ~rate t in
  let rec ctl = lazy (Core.Controller.create ~context:(decorate h ctl) config) in
  let ctl = Lazy.force ctl in
  start h ctl;
  let rec loop () = if Core.Controller.step ctl then loop () in
  Fun.protect ~finally:(fun () -> Core.Controller.close ctl) loop;
  let result = Core.Controller.finish ctl in
  let duration_ms = result.Core.Controller.time_ms in
  let throughput =
    if duration_ms > 0. then float_of_int h.committed /. (duration_ms /. 1000.) else 0.
  in
  let in_flight = Hashtbl.fold (fun _ reqs acc -> acc + List.length reqs) h.batches 0 in
  Option.iter
    (fun reg -> inject_metrics reg h ~throughput ~in_flight)
    result.Core.Controller.metrics;
  let occupancies = List.rev h.occupancies in
  let point =
    canonical_point
      {
        rate;
        outcome = Core.Journal.outcome_class result.Core.Controller.outcome;
        duration_ms;
        submitted = h.submitted;
        committed = h.committed;
        dropped = Mempool.dropped h.pool;
        requeued = Mempool.requeued h.pool;
        in_flight;
        pending = Mempool.length h.pool;
        key_conflicts = h.key_conflicts;
        mempool_peak = Mempool.peak h.pool;
        batches = h.next_batch;
        empty_batches = h.empty_batches;
        occupancy_mean =
          (match occupancies with
          | [] -> 0.
          | l ->
            float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l));
        throughput;
        latency = (match h.latencies with [] -> None | l -> Some (Core.Stats.of_list l));
      }
  in
  (point, h, result)

let run_point_audit (t : t) ~rate (config : Core.Config.t) =
  let point, h, result = run t ~rate config in
  let audit =
    {
      committed_ids = List.rev h.committed_ids;
      requeued_ids =
        Hashtbl.fold (fun id n acc -> (id, n) :: acc) h.requeue_counts [] |> List.sort compare;
      pending_ids = List.map (fun (r : Mempool.request) -> r.id) (Mempool.to_list h.pool);
      in_flight_ids =
        Hashtbl.fold
          (fun _ reqs acc -> List.map (fun (r : Mempool.request) -> r.id) reqs @ acc)
          h.batches []
        |> List.sort compare;
      batch_log = List.rev h.batch_log;
    }
  in
  (point, audit, result)

let run_point (t : t) ~rate (config : Core.Config.t) =
  let point, _, result = run t ~rate config in
  (point, result.Core.Controller.metrics)

(* {1 Rate sweeps} *)

type curve = {
  points : point list;  (** In offered-rate order (the input order). *)
  metrics : Metrics.t option;  (** Merged across points when telemetry is on. *)
  resumed : int;  (** Points loaded from the journal instead of run. *)
}

let shape (t : t) =
  Printf.sprintf "%s|%s|%d|%s|%s" (Arrival.to_cli_string t.arrival)
    (Batch.to_cli_string t.policy) t.mempool_capacity
    (clients_to_cli_string t.clients)
    (Keys.to_cli_string t.keys)

let fingerprint (t : t) (config : Core.Config.t) ~rates =
  let rates = String.concat "," (List.map (Printf.sprintf "%g") rates) in
  Core.Journal.fingerprint ~mode:(Printf.sprintf "load|%s|%s" (shape t) rates) ~reps:1 [ config ]

(* A journaled point carries the merged-registry contribution next to the
   point itself (like a digest's [metrics] field), so a resumed sweep
   rebuilds the identical merged registry without re-running. *)
let journal_body (point, metrics) =
  Json.Assoc
    (("point", point_to_json point)
    ::
    (match metrics with
    | None -> []
    | Some reg -> [ ("metrics", Metrics.to_json reg) ]))

let journal_decode json =
  let* pj = j_field "point" json in
  let* point = point_of_json pj in
  let* metrics =
    match Json.member "metrics" json with
    | None -> Ok None
    | Some mj -> Result.map Option.some (Metrics.of_json mj)
  in
  Ok (point, metrics)

let sweep ?jobs ?journal ?resumed (t : t) (config : Core.Config.t) ~rates =
  (* Unsupervised: a point that raises still sinks the sweep, after every
     finished point has been journaled. *)
  let slots =
    Core.Runner.campaign_map ?jobs ?journal ?resumed
      ~cell:(Printf.sprintf "%s|load|%s" (Core.Journal.cell_of_config config) (shape t))
      ~key:"point"
      ~encode:(fun pm -> Some (journal_body pm))
      ~decode:journal_decode
      (fun ~cancel:_ rate -> run_point t ~rate config)
      rates
  in
  let resolved =
    List.map
      (function
        | Core.Runner.Resumed pm | Core.Runner.Ran (Core.Supervisor.Ok pm) -> pm
        | Core.Runner.Ran _ -> assert false)
      slots
  in
  let registries = List.filter_map snd resolved in
  let metrics = match registries with [] -> None | rs -> Some (Metrics.merge rs) in
  { points = List.map fst resolved; metrics; resumed = Core.Runner.count_resumed slots }

(* {1 Rendering} *)

let knee points =
  List.fold_left
    (fun best p ->
      match best with
      | Some b when b.throughput >= p.throughput -> best
      | _ -> Some p)
    None points

let header = "rate,outcome,throughput,committed,submitted,dropped,requeued,batches,occupancy,lat_p50_ms,lat_p95_ms,lat_p99_ms,mempool_peak"

let row p =
  let lat f = match p.latency with None -> "" | Some s -> Printf.sprintf "%.3f" (f s) in
  Printf.sprintf "%g,%s,%.3f,%d,%d,%d,%d,%d,%.2f,%s,%s,%s,%d" p.rate p.outcome p.throughput
    p.committed p.submitted p.dropped p.requeued p.batches p.occupancy_mean
    (lat (fun s -> s.Core.Stats.median))
    (lat (fun s -> s.Core.Stats.p95))
    (lat (fun s -> s.Core.Stats.p99))
    p.mempool_peak

let pp_curve ppf { points; _ } =
  Format.fprintf ppf "%-10s %-14s %10s %10s %8s %8s %9s %9s %9s@." "rate" "outcome" "tput/s"
    "commit" "drop" "requeue" "p50ms" "p95ms" "p99ms";
  List.iter
    (fun p ->
      let lat f = match p.latency with None -> "-" | Some s -> Printf.sprintf "%.1f" (f s) in
      Format.fprintf ppf "%-10g %-14s %10.1f %10d %8d %8d %9s %9s %9s@." p.rate p.outcome
        p.throughput p.committed p.dropped p.requeued
        (lat (fun s -> s.Core.Stats.median))
        (lat (fun s -> s.Core.Stats.p95))
        (lat (fun s -> s.Core.Stats.p99)))
    points;
  match knee points with
  | Some k when k.throughput > 0. ->
    Format.fprintf ppf "saturation: %.1f req/s committed at offered %g req/s@." k.throughput
      k.rate
  | _ -> ()

let curve_to_json { points; _ } = Json.List (List.map point_to_json points)
