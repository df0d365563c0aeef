open Bftsim_core
module Net = Bftsim_net
module Protocols = Bftsim_protocols
module Attack = Bftsim_attack
module Gen = QCheck.Gen

type family = Passthrough | Failstop | Partition_split | Slowdown | Crash_recover | Twins

type t = { config : Config.t; family : family; expect_live : bool }

let all_families = [ Passthrough; Failstop; Partition_split; Slowdown; Crash_recover; Twins ]

let family_to_string = function
  | Passthrough -> "none"
  | Failstop -> "failstop"
  | Partition_split -> "partition"
  | Slowdown -> "delay"
  | Crash_recover -> "chaos"
  | Twins -> "twins"

let family_of_string = function
  | "none" | "passthrough" -> Some Passthrough
  | "failstop" -> Some Failstop
  | "partition" -> Some Partition_split
  | "delay" | "slowdown" -> Some Slowdown
  | "chaos" | "crash-recover" -> Some Crash_recover
  | "twins" -> Some Twins
  | _ -> None

(* System sizes sampled: tight 3f+1 forms (4, 7, 13), the paper's loose
   n = 16 and awkward in-between values. *)
let default_ns = [ 4; 5; 7; 8; 10; 13; 16 ]

(* Partitions and adversarial slowdowns break the synchrony assumption a
   synchronous-model protocol is entitled to, so an agreement violation
   there would be the model's fault, not the engine's — restrict those
   families to protocols designed for weaker models. *)
let applicable ~model family =
  match family with
  | Passthrough | Failstop | Crash_recover -> true
  | Partition_split | Slowdown | Twins -> model <> Protocols.Protocol_intf.Synchronous

(* HotStuff with the naive pacemaker loses liveness under crashed leaders
   by design (EXPERIMENTS.md Fig 7: never-certificated exponential backoff
   — the documented weakness Cogsworth fixes), so failing to reach the
   target there is expected behaviour, not a conformance violation. *)
let crash_fragile = [ "hotstuff-ns" ]

(* Snap generated floats to one decimal: the repro bundle renders numbers
   with %g (6 significant digits), so only "round" parameters survive the
   write-to-disk → parse-back trip bit-exactly — and replay fidelity is the
   whole point of a bundle. *)
let snap1 x = Float.round (x *. 10.) /. 10.

let float_range lo hi st = snap1 (Gen.float_range lo hi st)

let distinct_ids ~n ~count st =
  let chosen = Hashtbl.create 8 in
  let rec loop acc k =
    if k = 0 then List.sort compare acc
    else
      let id = Gen.int_range 0 (n - 1) st in
      if Hashtbl.mem chosen id then loop acc k
      else begin
        Hashtbl.replace chosen id ();
        loop (id :: acc) (k - 1)
      end
  in
  loop [] count

let delay_gen ~model ~lambda_ms st =
  match model with
  | Protocols.Protocol_intf.Synchronous ->
    (* The protocol assumes delays bounded by lambda; honour it. *)
    Gen.oneofl
      [
        Net.Delay_model.Constant (float_range 20. (lambda_ms /. 4.) st);
        Net.Delay_model.Uniform { lo = 10.; hi = float_range 50. (lambda_ms /. 2.) st };
        Net.Delay_model.bounded
          (Net.Delay_model.normal ~mu:(lambda_ms /. 4.) ~sigma:(lambda_ms /. 16.))
          ~bound:lambda_ms;
      ]
      st
  | Protocols.Protocol_intf.Partially_synchronous | Protocols.Protocol_intf.Asynchronous ->
    Gen.oneofl
      [
        Net.Delay_model.normal ~mu:(float_range 50. 400. st) ~sigma:(float_range 10. 100. st);
        Net.Delay_model.Uniform { lo = 10.; hi = float_range 100. 500. st };
        Net.Delay_model.Exponential { mean = float_range 50. 300. st };
        Net.Delay_model.Constant (float_range 20. 300. st);
      ]
      st

let gen ?protocols ?(families = all_families) () : t Gen.t =
 fun st ->
  let protocols =
    match protocols with Some ps when ps <> [] -> ps | _ -> Protocols.Registry.names ()
  in
  if families = [] then invalid_arg "Scenario.gen: empty family list";
  let protocol = Gen.oneofl protocols st in
  let model = Protocols.Protocol_intf.model (Protocols.Registry.find_exn protocol) in
  let families =
    match List.filter (applicable ~model) families with [] -> [ Passthrough ] | fs -> fs
  in
  let family = Gen.oneofl families st in
  let n = Gen.oneofl default_ns st in
  let f = Protocols.Quorum.max_faulty n in
  let lambda_ms = Gen.oneofl [ 500.; 1000.; 2000. ] st in
  let delay = delay_gen ~model ~lambda_ms st in
  let seed = Gen.int_range 1 1_000_000 st in
  let inputs =
    Gen.frequency [ (4, Gen.return Config.Distinct); (1, Gen.return (Config.Same "u")) ] st
  in
  let fragile = List.mem protocol crash_fragile in
  let crashed, attack, chaos, twins, expect_live =
    match family with
    | Passthrough -> ([], Config.No_attack, Attack.Fault_schedule.empty, None, true)
    | Failstop ->
      let count = if f = 0 then 0 else Gen.int_range 1 f st in
      let crashed = distinct_ids ~n ~count st in
      (crashed, Config.No_attack, Attack.Fault_schedule.empty, None, crashed = [] || not fragile)
    | Partition_split ->
      let first_size = Gen.int_range 1 (n - 1) st in
      let start_ms = float_range 0. 2000. st in
      (* Re-snap the sum: adding two one-decimal doubles does not always
         yield the double that parsing the rendered value produces. *)
      let heal_ms = snap1 (start_ms +. float_range 500. 6000. st) in
      let drop = Gen.bool st in
      ( [],
        Config.Partition { first_size; start_ms; heal_ms; drop },
        Attack.Fault_schedule.empty,
        None,
        not fragile )
    | Slowdown ->
      let extra_ms = float_range 10. 200. st in
      ([], Config.Extra_delay { extra_ms }, Attack.Fault_schedule.empty, None, true)
    | Crash_recover ->
      let count = if f = 0 then 1 else Gen.int_range 1 f st in
      let nodes = distinct_ids ~n ~count st in
      let crash_ms = float_range 0. 1000. st in
      let recover_ms = snap1 (crash_ms +. float_range 1000. 8000. st) in
      ( [],
        Config.No_attack,
        Attack.Fault_schedule.crash_and_recover ~nodes ~crash_ms ~recover_ms,
        None,
        false )
    | Twins ->
      (* One twinned identity (physical half lives at id n), 2..4 rounds
         drawn from a mix of honest-coherent shapes (only the twin halves
         are cut off — the classic Twins play, liveness-preserving) and
         arbitrary splits (safety-only: an isolated honest node may miss
         commits forever), occasionally with a leader prefix pinned to the
         twin.  The watchdog holds fire until the schedule ends. *)
      let twin = Gen.int_range 0 (n - 1) st in
      let pn = n + 1 in
      let round_ms = float_range (2. *. lambda_ms) (4. *. lambda_ms) st in
      let round _ =
        match Gen.int_range 0 7 st with
        | 0 | 1 -> [] (* healed round *)
        | 2 -> [ [ twin ] ] (* original half cut off *)
        | 3 -> [ [ n ] ] (* twin half cut off *)
        | 4 -> [ [ twin ]; [ n ] ] (* both halves isolated, separately *)
        | 5 -> [ [ twin; n ] ] (* the pair cut off together *)
        | _ ->
          let size = Gen.int_range 1 (pn - 1) st in
          [ distinct_ids ~n:pn ~count:size st ]
      in
      let rounds = List.init (Gen.int_range 2 4 st) round in
      let leaders =
        if Gen.bool st then []
        else
          List.init (Gen.int_range 1 4 st) (fun _ ->
              if Gen.bool st then twin else Gen.int_range 0 (n - 1) st)
      in
      let tw = { Attack.Twins_schedule.ids = [ twin ]; round_ms; rounds; leaders } in
      let live =
        Attack.Twins_schedule.preserves_liveness ~n ~quorum:(Protocols.Quorum.quorum n) tw
      in
      ([], Config.No_attack, Attack.Fault_schedule.empty, Some tw, live && not fragile)
  in
  let config =
    Config.make protocol ~n ~crashed ~lambda_ms ~delay ~seed ~attack ~chaos ?twins ~inputs
      ~max_time_ms:600_000.
  in
  { config; family; expect_live }

let sample ?protocols ?families ~budget ~seed () =
  if budget <= 0 then invalid_arg "Scenario.sample: budget <= 0";
  let rand = Random.State.make [| seed; 0x5ce7a110 |] in
  List.init budget (fun _ -> gen ?protocols ?families () rand)

let describe t =
  Printf.sprintf "%s %s" (family_to_string t.family) (Config.describe t.config)
