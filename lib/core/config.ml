open Bftsim_net
module Attack = Bftsim_attack
module Protocols = Bftsim_protocols
module Sha256 = Bftsim_crypto.Sha256

type attack_spec =
  | No_attack
  | Partition of { first_size : int; start_ms : float; heal_ms : float; drop : bool }
  | Silence of { nodes : int list; at_ms : float }
  | Add_static of { f : int }
  | Add_rushing_adaptive of { budget : int option }
  | Extra_delay of { extra_ms : float }

type transport = Direct | Gossip of { fanout : int }

type inputs = Distinct | Same of string | Random_binary

type telemetry = { metrics : bool; tracing : bool; trace_capacity : int }

let default_telemetry = { metrics = false; tracing = false; trace_capacity = 65536 }

type supervision = {
  deadline_ms : float option;
  max_retries : int;
  quarantine_after : int;
  retry_base_ms : float;
}

(* No wall-clock deadline, one retry, quarantine after 3 failures, no
   backoff sleep: supervision that only kicks in when something breaks. *)
let default_supervision =
  { deadline_ms = None; max_retries = 1; quarantine_after = 3; retry_base_ms = 0. }

type t = {
  protocol : string;
  n : int;
  crashed : int list;
  lambda_ms : float;
  delay : Delay_model.t;
  seed : int;
  attack : attack_spec;
  decisions_target : int;
  max_time_ms : float;
  max_events : int;
  inputs : inputs;
  transport : transport;
  costs : Cost_model.t;
  record_trace : bool;
  view_sample_ms : float option;
  chaos : Attack.Fault_schedule.t;
  twins : Attack.Twins_schedule.t option;
  watchdog : float option;
  check_validity : bool;
  naive_reset : Protocols.Context.naive_reset_policy;
  telemetry : telemetry;
  supervision : supervision;
  zones : string option;
  bandwidth_mbps : float option;
  pipeline : int;
  loss : Loss_model.t;
  reliable : bool;
  retrans_base_ms : float;
  retrans_backoff : float;
  retrans_max : int;
  wal_ms : float;
  stall_ms : float option;
}

(* Total replica count actually instantiated: each twinned identity runs a
   second physical node sharing its credentials (Twins_schedule's physical-id
   convention: twin of [ids.(k)] is physical [n + k]). *)
let physical_n t =
  match t.twins with None -> t.n | Some tw -> Attack.Twins_schedule.physical_n ~n:t.n tw

(* Every default, written once.  The decision target is the one default
   that depends on the protocol: [defaults] raises it for pipelined ones. *)
let default =
  {
    protocol = "";
    n = 16;
    crashed = [];
    lambda_ms = 1000.;
    delay = Delay_model.normal ~mu:250. ~sigma:50.;
    seed = 1;
    attack = No_attack;
    decisions_target = 1;
    max_time_ms = 600_000.;
    max_events = 50_000_000;
    inputs = Distinct;
    transport = Direct;
    costs = Cost_model.zero;
    record_trace = false;
    view_sample_ms = None;
    chaos = Attack.Fault_schedule.empty;
    twins = None;
    watchdog = None;
    check_validity = false;
    naive_reset = Protocols.Context.Reset_on_commit;
    telemetry = default_telemetry;
    supervision = default_supervision;
    zones = None;
    bandwidth_mbps = None;
    pipeline = 1;
    loss = Loss_model.none;
    reliable = false;
    retrans_base_ms = 0.;
    retrans_backoff = 2.;
    retrans_max = 10;
    wal_ms = 0.;
    stall_ms = None;
  }

(* Paper §IV: pipelined protocols are measured over 10 decisions. *)
let defaults protocol =
  if Protocols.Protocol_intf.pipelined (Protocols.Registry.find_exn protocol) then
    { default with protocol; decisions_target = 10 }
  else { default with protocol }

let fail fmt = Printf.ksprintf invalid_arg fmt

let check_ids ~n ~role ids =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun node ->
      if node < 0 || node >= n then fail "Config: %s node %d out of range 0..%d" role node (n - 1);
      if Hashtbl.mem seen node then fail "Config: node %d %s twice" node role;
      Hashtbl.replace seen node ())
    ids

let check_attack ~n = function
  | No_attack | Add_rushing_adaptive { budget = None } -> ()
  | Partition { first_size; start_ms; heal_ms; drop = _ } ->
    if first_size < 1 || first_size >= n then
      fail "Config: partition first_size = %d splits nothing with n = %d (need 1..%d)" first_size n
        (n - 1);
    if Float.is_nan start_ms || start_ms < 0. then
      fail "Config: partition starts at %g ms; the start must be non-negative" start_ms;
    if Float.is_nan heal_ms || heal_ms <= start_ms then
      fail
        "Config: partition heals at %g ms, at or before its start at %g ms — the window is empty; use heal_ms > start_ms"
        heal_ms start_ms
  | Silence { nodes; at_ms } ->
    if Float.is_nan at_ms || at_ms < 0. then
      fail "Config: silence at %g ms; the onset must be non-negative" at_ms;
    if nodes = [] then fail "Config: silence attack with no nodes silences nothing";
    check_ids ~n ~role:"silenced" nodes
  | Add_static { f } ->
    if f < 1 then fail "Config: add-static with f = %d adds no Byzantine nodes" f
  | Add_rushing_adaptive { budget = Some b } ->
    if b < 0 then fail "Config: add-adaptive budget = %d, must be non-negative" b
  | Extra_delay { extra_ms } ->
    if Float.is_nan extra_ms || extra_ms < 0. then
      fail "Config: extra-delay of %g ms, must be non-negative" extra_ms

let parse_int_list s =
  try Ok (List.filter_map (fun x -> if x = "" then None else Some (int_of_string x)) (String.split_on_char ',' s))
  with Failure _ -> Error (Printf.sprintf "invalid id list %S" s)

let parse_attack s =
  match String.index_opt s ':' with
  | None -> (
    match s with
    | "none" -> Ok No_attack
    | "add-adaptive" -> Ok (Add_rushing_adaptive { budget = None })
    | _ -> Error (Printf.sprintf "unknown attack %S" s))
  | Some i when String.sub s 0 i = "add-adaptive" -> (
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt rest with
    | Some budget -> Ok (Add_rushing_adaptive { budget = Some budget })
    | None -> Error (Printf.sprintf "invalid add-adaptive budget %S" rest))
  | Some i -> (
    let kind = String.sub s 0 i and rest = String.sub s (i + 1) (String.length s - i - 1) in
    match kind with
    | "partition" -> (
      match String.split_on_char ',' rest with
      | [ first; start; heal ] | [ first; start; heal; _ ] -> (
        try
          let drop =
            match String.split_on_char ',' rest with [ _; _; _; "delay" ] -> false | _ -> true
          in
          Ok
            (Partition
               {
                 first_size = int_of_string first;
                 start_ms = float_of_string start;
                 heal_ms = float_of_string heal;
                 drop;
               })
        with Failure _ -> Error (Printf.sprintf "invalid partition spec %S" rest))
      | _ -> Error (Printf.sprintf "invalid partition spec %S" rest))
    | "silence" -> (
      match String.index_opt rest '@' with
      | None -> Error (Printf.sprintf "invalid silence spec %S" rest)
      | Some j -> (
        let ids = String.sub rest 0 j in
        let at = String.sub rest (j + 1) (String.length rest - j - 1) in
        match (parse_int_list ids, float_of_string_opt at) with
        | Ok nodes, Some at_ms -> Ok (Silence { nodes; at_ms })
        | Error e, _ -> Error e
        | _, None -> Error (Printf.sprintf "invalid silence time %S" at)))
    | "add-static" -> (
      match int_of_string_opt rest with
      | Some f -> Ok (Add_static { f })
      | None -> Error (Printf.sprintf "invalid add-static f %S" rest))
    | "extra-delay" -> (
      match float_of_string_opt rest with
      | Some extra_ms -> Ok (Extra_delay { extra_ms })
      | None -> Error (Printf.sprintf "invalid extra-delay %S" rest))
    | _ -> Error (Printf.sprintf "unknown attack %S" s))

let num = Bftsim_sim.Float_text.to_string

(* Parseable renderings (inverses of the parsers) so a config can be
   written back out as a key = value file — the conformance repro bundles. *)
let attack_to_cli_string = function
  | No_attack -> "none"
  | Partition { first_size; start_ms; heal_ms; drop } ->
    Printf.sprintf "partition:%d,%s,%s%s" first_size (num start_ms) (num heal_ms)
      (if drop then "" else ",delay")
  | Silence { nodes; at_ms } ->
    Printf.sprintf "silence:%s@%s" (String.concat "," (List.map string_of_int nodes)) (num at_ms)
  | Add_static { f } -> Printf.sprintf "add-static:%d" f
  | Add_rushing_adaptive { budget = None } -> "add-adaptive"
  | Add_rushing_adaptive { budget = Some b } -> Printf.sprintf "add-adaptive:%d" b
  | Extra_delay { extra_ms } -> "extra-delay:" ^ num extra_ms

let inputs_to_cli_string = function
  | Distinct -> "distinct"
  | Same v -> "same:" ^ v
  | Random_binary -> "binary"

let parse_inputs s =
  if String.equal s "distinct" then Ok Distinct
  else if String.equal s "binary" then Ok Random_binary
  else if String.length s > 5 && String.sub s 0 5 = "same:" then
    Ok (Same (String.sub s 5 (String.length s - 5)))
  else Error (Printf.sprintf "unknown inputs spec %S" s)

let parse_transport = function
  | "direct" -> Ok Direct
  | s when String.length s > 7 && String.sub s 0 7 = "gossip:" -> (
    match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
    | Some fanout -> Ok (Gossip { fanout })
    | None -> Error (Printf.sprintf "invalid gossip fanout in %S" s))
  | s -> Error (Printf.sprintf "unknown transport %S" s)

(* {1 The key table}

   One entry per file key: how to read its value into a [t], how to write
   it back (only when it differs from the default), its per-field range
   check and, where one exists, its CLI flag.  [of_keyvalues] folds the
   table over the defaults, [to_keyvalues] maps it, [validate] runs its
   checks before the cross-field ones. *)

type flag_set = Base | Scenario | Transport | Faults | Placement | Supervision

type flag = { set : flag_set; names : string list; docv : string option; doc : string }

type field = {
  key : string;
  flag : flag option;
  read : string -> t -> (t, string) result;
  show : t -> string option;  (** [None]: the key is omitted. *)
  check : t -> unit;
}

(* How one value type is parsed (the key names the value in errors) and
   printed. *)
type 'a conv = { parse : string -> string -> ('a, string) result; print : 'a -> string }

let scalar kind of_string print =
  let parse key s =
    match of_string s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "invalid %s for %s: %S" kind key s)
  in
  { parse; print }

let int = scalar "integer" int_of_string_opt string_of_int
let float = scalar "float" float_of_string_opt num
let bool = scalar "boolean" bool_of_string_opt string_of_bool
let text parse print = { parse = (fun _ s -> parse s); print }
let string = text Result.ok Fun.id

(* An optional value; the literal "none" reads as [None] where [none] allows. *)
let some ?(none = false) c =
  let parse key s =
    if none && s = "none" then Ok None else Result.map Option.some (c.parse key s)
  in
  { parse; print = (function Some v -> c.print v | None -> "none") }

let flag ?docv set names doc = { set; names; docv; doc }

(* The common entry: a value reached through [get]/[set], written whenever
   it differs from [default] (or [always]), rejected unless [valid]'s
   predicate holds, with [check] for ranges that depend on other fields. *)
let field ?flag ?(always = false) ?valid ?(check = fun _ _ -> ()) key conv get set =
  let check t =
    let v = get t in
    (match valid with
    | Some (reason, ok) when not (ok v) -> fail "Config: %s = %s, %s" key (conv.print v) reason
    | Some _ | None -> ());
    check t v
  in
  {
    key;
    flag;
    read = (fun s t -> Result.map (set t) (conv.parse key s));
    show = (fun t -> if always || get t <> get default then Some (conv.print (get t)) else None);
    check;
  }

(* A key of the twins schedule: read only once [twins] has named the
   twinned ids (it is ignored otherwise), written while [shown]. *)
let twins_key ?(shown = fun _ -> true) key conv get set =
  let read s t =
    match t.twins with
    | None -> Ok t
    | Some tw -> Result.map (fun v -> { t with twins = Some (set tw v) }) (conv.parse key s)
  in
  let show t =
    match t.twins with Some tw when shown (get tw) -> Some (conv.print (get tw)) | _ -> None
  in
  { key; flag = None; read; show; check = ignore }

let positive x = x > 0.
let non_negative x = x >= 0.
let probability p = p >= 0. && p <= 1.
let not_probability = "not a probability; use a value in [0, 1]"

let fields =
  let module Ts = Attack.Twins_schedule in
  let always = true and optional ok = Option.fold ~none:true ~some:ok in
  [
    field "protocol" ~always
      ~flag:
        (flag Base [ "p"; "protocol" ] ~docv:"NAME"
           ("Protocol to simulate: " ^ String.concat ", " (Protocols.Registry.names ()) ^ "."))
      string (fun t -> t.protocol) (fun t protocol -> { t with protocol });
    field "n" ~always ~valid:("need at least one node", fun n -> n > 0)
      ~flag:(flag Base [ "n" ] ~docv:"NODES" "Number of nodes.")
      int (fun t -> t.n) (fun t n -> { t with n });
    field "seed" ~always
      ~flag:(flag Base [ "seed" ] ~docv:"INT" "Random seed.")
      int (fun t -> t.seed) (fun t seed -> { t with seed });
    field "lambda" ~always ~valid:("the delay bound must be positive", positive)
      ~flag:(flag Base [ "lambda" ] ~docv:"MS" "Assumed delay bound (ms).")
      float (fun t -> t.lambda_ms) (fun t lambda_ms -> { t with lambda_ms });
    field "delay" ~always
      ~flag:
        (flag Base [ "delay" ] ~docv:"MODEL"
           "Network delay model, e.g. normal:250,50 | uniform:10,20 | exp:300.")
      (text Delay_model.of_string Delay_model.to_cli_string)
      (fun t -> t.delay) (fun t delay -> { t with delay });
    field "max_time_ms" ~always ~valid:("the liveness cap must be positive", positive)
      ~flag:(flag Base [ "max-time" ] ~docv:"MS" "Simulated-time cap (ms).")
      float (fun t -> t.max_time_ms) (fun t max_time_ms -> { t with max_time_ms });
    field "max_events" ~always ~valid:("the event cap must be positive", fun m -> m > 0)
      ~flag:(flag Base [ "max-events" ] ~docv:"INT" "Event cap: the run stops after this many events.")
      int (fun t -> t.max_events) (fun t max_events -> { t with max_events });
    field "target" ~always ~valid:("nothing to wait for", fun d -> d > 0)
      ~flag:(flag Scenario [ "target" ] ~docv:"INT" "Decisions per node before stopping.")
      int (fun t -> t.decisions_target) (fun t decisions_target -> { t with decisions_target });
    field "inputs" ~always
      ~flag:(flag Scenario [ "inputs" ] ~docv:"SPEC" "distinct | same:<v> | binary.")
      (text parse_inputs inputs_to_cli_string)
      (fun t -> t.inputs) (fun t inputs -> { t with inputs });
    field "crashed" ~check:(fun t -> check_ids ~n:t.n ~role:"crashed")
      ~flag:(flag Base [ "crashed" ] ~docv:"IDS" "Fail-stop node ids, comma separated.")
      (text parse_int_list (fun ids -> String.concat "," (List.map string_of_int ids)))
      (fun t -> t.crashed) (fun t crashed -> { t with crashed });
    field "attack" ~check:(fun t -> check_attack ~n:t.n)
      ~flag:
        (flag Scenario [ "attack" ] ~docv:"SPEC"
           "Attack: none | partition:<first>,<start>,<heal>[,delay] | silence:<ids>@<ms> | \
            add-static:<f> | add-adaptive | extra-delay:<ms>.")
      (text parse_attack attack_to_cli_string)
      (fun t -> t.attack) (fun t attack -> { t with attack });
    field "transport"
      ~valid:
        ("the gossip fanout must be positive", function Gossip g -> g.fanout > 0 | Direct -> true)
      ~flag:(flag Transport [ "transport" ] ~docv:"SPEC" "direct (default) or gossip:<fanout>.")
      (text parse_transport (function
         | Direct -> "direct"
         | Gossip { fanout } -> Printf.sprintf "gossip:%d" fanout))
      (fun t -> t.transport) (fun t transport -> { t with transport });
    field "costs"
      ~flag:
        (flag Transport [ "costs" ] ~docv:"SPEC"
           "Computation costs: none | commodity | rsa2048 | custom:<sign_ms>,<verify_ms>.")
      (text Cost_model.of_string (fun c ->
           Printf.sprintf "custom:%s,%s" (num c.Cost_model.sign_ms) (num c.Cost_model.verify_ms)))
      (fun t -> t.costs) (fun t costs -> { t with costs });
    field "chaos"
      ~flag:
        (flag Scenario [ "chaos" ] ~docv:"PLAN"
           "Timed fault schedule: semicolon-separated action@time steps, e.g. \
            crash:3@0;recover:3@15000;loss:0.2@0-8000;partition:0,1|2,3@1000;heal@5000;\
            spike:500@0-4000;dup:0.1@0-4000;gst:normal:100,10@15000.")
      (text Attack.Fault_schedule.of_string Attack.Fault_schedule.describe)
      (fun t -> t.chaos) (fun t chaos -> { t with chaos });
    (* Naming the twinned ids starts a schedule whose round lasts 4 lambda
       unless twins_round_ms says otherwise; the other twins keys fill it. *)
    {
      key = "twins";
      flag = None;
      read =
        (fun s t ->
          let schedule ids = { Ts.ids; round_ms = 4. *. t.lambda_ms; rounds = []; leaders = [] } in
          Result.map (fun ids -> { t with twins = Some (schedule ids) }) (Ts.ids_of_string s));
      show = (fun t -> Option.map (fun tw -> Ts.ids_to_string tw.Ts.ids) t.twins);
      check = (fun t -> Option.iter (Ts.validate ~n:t.n) t.twins);
    };
    twins_key "twins_rounds" ~shown:(( <> ) [])
      (text Ts.rounds_of_string Ts.rounds_to_string)
      (fun tw -> tw.Ts.rounds) (fun tw rounds -> { tw with rounds });
    twins_key "twins_leaders" ~shown:(( <> ) [])
      (text Ts.ids_of_string Ts.ids_to_string)
      (fun tw -> tw.Ts.leaders) (fun tw leaders -> { tw with leaders });
    twins_key "twins_round_ms" float
      (fun tw -> tw.Ts.round_ms) (fun tw round_ms -> { tw with round_ms });
    field "watchdog" ~valid:("the stall multiplier must be positive", optional positive)
      ~flag:
        (flag Scenario [ "watchdog" ] ~docv:"K"
           "Liveness watchdog: abort as stalled after this many lambda without a decision \
            (once all scheduled chaos steps have played out).")
      (some float) (fun t -> t.watchdog) (fun t watchdog -> { t with watchdog });
    field "naive_reset"
      (text
         (fun s ->
           Option.to_result
             ~none:(Printf.sprintf "invalid naive_reset %S (commit | never | view)" s)
             (Protocols.Context.naive_reset_policy_of_string s))
         Protocols.Context.naive_reset_policy_to_string)
      (fun t -> t.naive_reset) (fun t naive_reset -> { t with naive_reset });
    field "zones"
      ~check:(fun _ ->
        Option.iter (fun spec ->
            match Topology.zones_of_spec spec with Ok _ -> () | Error e -> fail "Config: %s" e))
      ~flag:
        (flag Placement [ "zones" ] ~docv:"SPEC"
           "Geographic zones: geo3 | geo5 | uniform:<k>@<rtt_ms>; replicas are placed \
            round-robin and messages pay the one-way inter-zone latency.")
      (some string) (fun t -> t.zones) (fun t zones -> { t with zones });
    field "bandwidth" ~valid:("the egress bandwidth (Mbps) must be positive", optional positive)
      ~flag:
        (flag Placement [ "bandwidth" ] ~docv:"MBPS"
           "Per-sender egress bandwidth: batch bytes serialize FIFO into delay.")
      (some float) (fun t -> t.bandwidth_mbps) (fun t bandwidth_mbps -> { t with bandwidth_mbps });
    field "pipeline" ~valid:("need at least one height in flight", fun p -> p >= 1)
      ~flag:
        (flag Placement [ "pipeline" ] ~docv:"INT" "Consensus heights a leader keeps in flight.")
      int (fun t -> t.pipeline) (fun t pipeline -> { t with pipeline });
    field "loss" ~valid:(not_probability, probability)
      ~flag:
        (flag Faults [ "loss" ] ~docv:"P" "Independent per-message drop probability on every link.")
      float (fun t -> t.loss.drop) (fun t drop -> { t with loss = { t.loss with drop } });
    field "dup" ~valid:(not_probability, probability)
      ~flag:(flag Faults [ "dup" ] ~docv:"P" "Per-delivered-message duplication probability.")
      float (fun t -> t.loss.dup) (fun t dup -> { t with loss = { t.loss with dup } });
    field "reorder" ~valid:("the reordering window (ms) must be non-negative", non_negative)
      ~flag:
        (flag Faults [ "reorder" ] ~docv:"MS"
           "Reordering window: extra uniform [0,$(docv)) delay per delivered message.")
      float (fun t -> t.loss.reorder_ms)
      (fun t reorder_ms -> { t with loss = { t.loss with reorder_ms } });
    field "burst_loss"
      ~valid:
        ( "p_gb, p_bg and p_bad must each lie in [0, 1]",
          optional (fun b -> List.for_all probability Loss_model.[ b.p_gb; b.p_bg; b.p_bad ]) )
      ~flag:
        (flag Faults [ "burst-loss" ] ~docv:"GB,BG,BAD"
           "Gilbert-Elliott burst loss per link: good-to-bad and bad-to-good transition \
            probabilities and the drop probability while in the bad state.")
      (some
         (text
            (fun s -> try Ok (Loss_model.burst_of_string s) with Invalid_argument e -> Error e)
            Loss_model.burst_to_string))
      (fun t -> t.loss.burst) (fun t burst -> { t with loss = { t.loss with burst } });
    field "reliable"
      ~flag:
        (flag Faults [ "reliable" ]
           "Run protocol traffic over the simulated reliable channel: sequence-numbered \
            frames, acks, retransmission with exponential backoff, receive-side \
            deduplication.")
      bool (fun t -> t.reliable) (fun t reliable -> { t with reliable });
    field "retrans_base_ms" ~valid:("must be non-negative (0 derives 2*lambda)", non_negative)
      ~flag:
        (flag Faults [ "retrans-base" ] ~docv:"MS"
           "Reliable-channel base retransmission timeout (default 2 lambda).")
      float (fun t -> t.retrans_base_ms) (fun t retrans_base_ms -> { t with retrans_base_ms });
    field "retrans_backoff" ~valid:("the backoff factor must be >= 1", fun b -> b >= 1.)
      ~flag:
        (flag Faults [ "retrans-backoff" ] ~docv:"F"
           (Printf.sprintf "Reliable-channel exponential backoff factor (default %g)."
              default.retrans_backoff))
      float (fun t -> t.retrans_backoff) (fun t retrans_backoff -> { t with retrans_backoff });
    field "retrans_max" ~valid:("the retry cap must be non-negative", fun m -> m >= 0)
      ~flag:
        (flag Faults [ "retrans-max" ] ~docv:"INT"
           (Printf.sprintf "Retransmissions per frame before the channel gives up (default %d)."
              default.retrans_max))
      int (fun t -> t.retrans_max) (fun t retrans_max -> { t with retrans_max });
    field "wal_ms" ~valid:("the WAL write latency must be non-negative", non_negative)
      ~flag:
        (flag Faults [ "wal-ms" ] ~docv:"MS"
           "Simulated write-ahead-log write latency charged to the node's CPU per \
            Context.persist call.")
      float (fun t -> t.wal_ms) (fun t wal_ms -> { t with wal_ms });
    field "stall_ms" ~valid:("the stall threshold must be positive", optional positive)
      ~flag:
        (flag Faults [ "stall-ms" ] ~docv:"MS"
           "Absolute liveness-watchdog stall threshold (ms); overrides the $(b,--watchdog) \
            multiplier.")
      (some ~none:true float) (fun t -> t.stall_ms) (fun t stall_ms -> { t with stall_ms });
    field "metrics" bool
      (fun t -> t.telemetry.metrics)
      (fun t metrics -> { t with telemetry = { t.telemetry with metrics } });
    field "tracing" bool
      (fun t -> t.telemetry.tracing)
      (fun t tracing -> { t with telemetry = { t.telemetry with tracing } });
    field "deadline_ms" ~valid:("the wall-clock deadline must be positive", optional positive)
      ~flag:
        (flag Supervision [ "deadline" ] ~docv:"MS"
           "Wall-clock budget per supervised replication attempt (ms); overruns are \
            abandoned between events, reported, and retried.")
      (some ~none:true float)
      (fun t -> t.supervision.deadline_ms)
      (fun t deadline_ms -> { t with supervision = { t.supervision with deadline_ms } });
    field "retries" ~valid:("must be non-negative", fun r -> r >= 0)
      ~flag:
        (flag Supervision [ "retries" ] ~docv:"INT"
           (Printf.sprintf
              "Extra attempts after a crashed or deadline-overrunning replication (default %d)."
              default_supervision.max_retries))
      int
      (fun t -> t.supervision.max_retries)
      (fun t max_retries -> { t with supervision = { t.supervision with max_retries } });
    field "quarantine" ~valid:("at least one failure must precede quarantine", fun q -> q >= 1)
      ~flag:
        (flag Supervision [ "quarantine" ] ~docv:"INT"
           (Printf.sprintf "Failures of one replication before it is quarantined (default %d)."
              default_supervision.quarantine_after))
      int
      (fun t -> t.supervision.quarantine_after)
      (fun t quarantine_after -> { t with supervision = { t.supervision with quarantine_after } });
    field "retry_base_ms" ~valid:("must be non-negative", non_negative) float
      (fun t -> t.supervision.retry_base_ms)
      (fun t retry_base_ms -> { t with supervision = { t.supervision with retry_base_ms } });
    field "trace_capacity" ~valid:("the ring buffer needs room", fun c -> c > 0) int
      (fun t -> t.telemetry.trace_capacity)
      (fun t trace_capacity -> { t with telemetry = { t.telemetry with trace_capacity } });
  ]

let keys = List.map (fun f -> f.key) fields
let flags = List.filter_map (fun f -> Option.map (fun flag -> (f.key, flag)) f.flag) fields

(* Per-field checks come from the table; what follows relates fields. *)
let validate t =
  let p =
    match Protocols.Registry.find t.protocol with
    | Some p -> p
    | None ->
      fail "Config: unknown protocol %S (known: %s)" t.protocol
        (String.concat ", " (Protocols.Registry.names ()))
  in
  List.iter (fun f -> f.check t) fields;
  (* Fault-tolerance bound: config-crashed nodes are faults the protocol is
     expected to mask, so they must respect the model's resilience —
     (n-1)/2 crash faults under synchrony, (n-1)/3 otherwise.  Chaos-
     schedule crashes are deliberately exempt: exceeding the bound is
     exactly what a chaos experiment probes, and the watchdog reports the
     resulting stall instead. *)
  let tolerable =
    match Protocols.Protocol_intf.model p with
    | Protocols.Protocol_intf.Synchronous -> (t.n - 1) / 2
    | Protocols.Protocol_intf.Partially_synchronous | Protocols.Protocol_intf.Asynchronous ->
      (t.n - 1) / 3
  in
  if List.length t.crashed > tolerable then
    fail "Config: %d crashed nodes with n = %d exceeds the %s tolerance of %d (use a chaos schedule to over-crash deliberately)"
      (List.length t.crashed) t.n
      (Protocols.Protocol_intf.network_model_to_string (Protocols.Protocol_intf.model p))
      tolerable;
  (match t.twins with
  | None -> ()
  | Some tw ->
    (* Twins emulate Byzantine faults, so the twinned identities count
       against the same resilience budget as config-crashed nodes. *)
    let twinned = Attack.Twins_schedule.count tw in
    if List.length t.crashed + twinned > tolerable then
      fail "Config: %d twinned + %d crashed nodes with n = %d exceeds the tolerance of %d"
        twinned (List.length t.crashed) t.n tolerable;
    List.iter
      (fun id ->
        if List.mem id t.crashed then
          fail "Config: node %d is both crashed and twinned — a crashed twin tests nothing" id)
      tw.Attack.Twins_schedule.ids;
    (match t.attack with
    | No_attack | Extra_delay _ -> ()
    | a ->
      fail
        "Config: twins cannot combine with the %s attack (attacker node ids do not extend to twin replicas); use the twins partition schedule instead"
        (List.hd (String.split_on_char ':' (attack_to_cli_string a))));
    match t.transport with
    | Direct -> ()
    | Gossip _ -> fail "Config: twins requires the direct transport (gossip topology is per-physical-node)");
  (match (t.reliable, t.transport) with
  | true, Gossip _ ->
    fail "Config: reliable channels require the direct transport (gossip re-forwards frames per hop)"
  | _ -> ());
  (* Chaos steps may target twin replicas, so node ids range over the
     physical replica set. *)
  Attack.Fault_schedule.validate ~n:(physical_n t) t.chaos

let make ?(n = default.n) ?(crashed = default.crashed) ?(lambda_ms = default.lambda_ms)
    ?(delay = default.delay) ?(seed = default.seed) ?(attack = default.attack) ?decisions_target
    ?(max_time_ms = default.max_time_ms) ?(max_events = default.max_events)
    ?(inputs = default.inputs) ?(transport = default.transport) ?(costs = default.costs)
    ?(record_trace = default.record_trace) ?view_sample_ms ?(chaos = default.chaos) ?twins
    ?watchdog ?(check_validity = default.check_validity) ?(naive_reset = default.naive_reset)
    ?(telemetry = default.telemetry) ?(supervision = default.supervision) ?zones ?bandwidth_mbps
    ?(pipeline = default.pipeline) ?(loss = default.loss) ?(reliable = default.reliable)
    ?(retrans_base_ms = default.retrans_base_ms) ?(retrans_backoff = default.retrans_backoff)
    ?(retrans_max = default.retrans_max) ?(wal_ms = default.wal_ms) ?stall_ms protocol =
  let t =
    {
      protocol;
      n;
      crashed;
      lambda_ms;
      delay;
      seed;
      attack;
      decisions_target =
        (match decisions_target with Some d -> d | None -> (defaults protocol).decisions_target);
      max_time_ms;
      max_events;
      inputs;
      transport;
      costs;
      record_trace;
      view_sample_ms;
      chaos = Attack.Fault_schedule.normalize chaos;
      twins;
      watchdog;
      check_validity;
      naive_reset;
      telemetry;
      supervision;
      zones;
      bandwidth_mbps;
      pipeline;
      loss;
      reliable;
      retrans_base_ms;
      retrans_backoff;
      retrans_max;
      wal_ms;
      stall_ms;
    }
  in
  validate t;
  t

let input_for t node =
  match t.inputs with
  | Distinct -> Printf.sprintf "v%d" node
  | Same v -> v
  | Random_binary ->
    let d = Sha256.digest_string (Printf.sprintf "input|%d|%d" t.seed node) in
    if Char.code (Sha256.to_raw d).[0] land 1 = 0 then "0" else "1"

let describe_attack = function
  | No_attack -> "none"
  | Partition { first_size; start_ms; heal_ms; drop } ->
    Printf.sprintf "partition(%d|rest,[%g,%g),%s)" first_size start_ms heal_ms
      (if drop then "drop" else "delay")
  | Silence { nodes; at_ms } -> Printf.sprintf "silence(%d nodes@%g)" (List.length nodes) at_ms
  | Add_static { f } -> Printf.sprintf "add-static(f=%d)" f
  | Add_rushing_adaptive { budget } ->
    (match budget with
    | None -> "add-rushing-adaptive"
    | Some b -> Printf.sprintf "add-rushing-adaptive(budget=%d)" b)
  | Extra_delay { extra_ms } -> Printf.sprintf "extra-delay(%g)" extra_ms

let describe t =
  Printf.sprintf "%s n=%d crashed=%d lambda=%g delay=%s attack=%s target=%d seed=%d%s" t.protocol
    t.n (List.length t.crashed) t.lambda_ms (Delay_model.describe t.delay)
    (describe_attack t.attack) t.decisions_target t.seed
    ((if Cost_model.is_zero t.costs then "" else " costs=" ^ Cost_model.describe t.costs)
    ^ (match t.transport with
      | Direct -> ""
      | Gossip { fanout } -> Printf.sprintf " transport=gossip:%d" fanout)
    ^ (match t.chaos with
      | [] -> ""
      | steps -> Printf.sprintf " chaos=[%d steps]" (List.length steps))
    ^ (match t.twins with
      | None -> ""
      | Some tw -> " " ^ Attack.Twins_schedule.describe tw)
    ^ (match t.watchdog with
      | None -> ""
      | Some k -> Printf.sprintf " watchdog=%g*lambda" k)
    ^ (match t.naive_reset with
      | Protocols.Context.Reset_on_commit -> ""
      | p ->
        Printf.sprintf " naive-reset=%s" (Protocols.Context.naive_reset_policy_to_string p))
    ^ (match t.zones with None -> "" | Some spec -> Printf.sprintf " zones=%s" spec)
    ^ (match t.bandwidth_mbps with
      | None -> ""
      | Some b -> Printf.sprintf " bw=%gMbps" b)
    ^ (if t.pipeline = 1 then "" else Printf.sprintf " pipeline=%d" t.pipeline)
    ^ (if Loss_model.is_none t.loss then "" else " " ^ Loss_model.describe t.loss)
    ^ (if not t.reliable then ""
       else
         Printf.sprintf " reliable(base=%g,backoff=%g,max=%d)" t.retrans_base_ms
           t.retrans_backoff t.retrans_max)
    ^ (if t.wal_ms = 0. then "" else Printf.sprintf " wal=%gms" t.wal_ms)
    ^ (match t.stall_ms with None -> "" | Some s -> Printf.sprintf " stall=%gms" s)
    ^
    match (t.telemetry.metrics, t.telemetry.tracing) with
    | false, false -> ""
    | m, tr ->
      Printf.sprintf " telemetry=%s"
        (String.concat "+"
           (List.filter_map Fun.id [ (if m then Some "metrics" else None); (if tr then Some "trace" else None) ])))

let of_keyvalues kvs =
  let ( let* ) = Result.bind in
  let* protocol = Option.to_result ~none:"missing key: protocol" (List.assoc_opt "protocol" kvs) in
  let* () =
    match List.find_opt (fun (key, _) -> not (List.mem key keys)) kvs with
    | Some (key, _) ->
      Error (Printf.sprintf "unknown key %S (known keys: %s)" key (String.concat ", " keys))
    | None -> Ok ()
  in
  (* Flags precede file lines in the CLI's list, so the first binding wins. *)
  let read acc f =
    let* t = acc in
    match List.assoc_opt f.key kvs with None -> Ok t | Some s -> f.read s t
  in
  try
    let* t = List.fold_left read (Ok (defaults protocol)) fields in
    validate t;
    Ok t
  with Invalid_argument msg -> Error msg

(* Fields without file syntax ([record_trace], [view_sample_ms],
   [check_validity]) are per-invocation switches, not scenario identity,
   and are omitted. *)
let to_keyvalues t = List.filter_map (fun f -> Option.map (fun v -> (f.key, v)) (f.show t)) fields

let differing_keys a b =
  List.filter_map (fun f -> if f.show a = f.show b then None else Some f.key) fields
  @ List.filter_map
      (fun (name, same) -> if same then None else Some name)
      [
        ("record_trace", a.record_trace = b.record_trace);
        ("view_sample_ms", a.view_sample_ms = b.view_sample_ms);
        ("check_validity", a.check_validity = b.check_validity);
      ]
