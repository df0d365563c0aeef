(* Component kernels: public functions of single layers called in a loop at
   the shapes a workload gives them, for the per-layer numbers that the
   protocol wrapper cannot see (event queue, delay and loss sampling,
   crypto, workload structures, telemetry, journal digests). *)

open Bftsim_sim
open Bftsim_net
module Crypto = Bftsim_crypto
module Wl = Bftsim_workload
module Obs = Bftsim_obs

type cost = { ns : float; words : float }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan else if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* [op i] is one operation; it runs in [rounds] batches of [batch] calls,
   and the per-call cost is the median batch's. *)
let measure ?(rounds = 5) ~batch op =
  op 0;
  let ns = ref [] and words = ref [] in
  for _ = 1 to rounds do
    let w0 = Gc.minor_words () in
    let t0 = Span.now_ns () in
    for i = 1 to batch do
      op i
    done;
    let t1 = Span.now_ns () in
    let w1 = Gc.minor_words () in
    ns := ((t1 -. t0) /. float_of_int batch) :: !ns;
    words := ((w1 -. w0) /. float_of_int batch) :: !words
  done;
  { ns = median !ns; words = median !words }

(* One pop plus one push on a queue holding [depth] pending events. *)
let event_queue ~depth ~seed =
  let q = Event_queue.create () in
  let rng = Rng.create seed in
  for i = 1 to depth do
    Event_queue.schedule_after q ~delay_ms:(Rng.float rng 1000.) i
  done;
  measure ~batch:20_000 (fun i ->
      ignore (Event_queue.next_exn q : int);
      Event_queue.schedule_after q ~delay_ms:(Rng.float rng 1000.) i)

let assign_delay ~n ~topology ?bandwidth_mbps ~delay ~seed () =
  let net = Network.create ?bandwidth_mbps ~delay ~topology ~rng:(Rng.create seed) () in
  let msgs =
    Array.init 64 (fun i ->
        Message.make ~id:i ~src:(i mod n) ~dst:((i + 1 + (i / n)) mod n) ~sent_at:Time.zero
          (Message.Blob ""))
  in
  measure ~batch:20_000 (fun i -> Network.assign_delay net msgs.(i land 63))

let loss_sample ~n ~loss ~seed =
  let st = Loss_model.state loss and rng = Rng.create seed in
  measure ~batch:20_000 (fun i ->
      ignore (Loss_model.sample st rng ~src:(i mod n) ~dst:((i * 7) mod n) : Loss_model.verdict))

let sha256_64b () =
  let block = String.init 64 (fun i -> Char.chr (i land 0xff)) in
  measure ~batch:4_000 (fun _ -> ignore (Crypto.Sha256.digest_string block : Crypto.Sha256.digest))

let vrf_verify ~seed =
  let ev = Crypto.Vrf.eval ~seed ~node:3 ~input:"round-7" in
  measure ~batch:200 (fun _ -> ignore (Crypto.Vrf.verify ~seed ev : bool))

let sig_verify ~seed =
  let kp = Crypto.Sig_sim.keygen ~seed ~node:1 in
  let s = Crypto.Sig_sim.sign kp "prepare/7/digest" in
  measure ~batch:1_000 (fun _ -> ignore (Crypto.Sig_sim.verify ~seed s "prepare/7/digest" : bool))

(* Submit one request; every [max_batch] submissions a leader cuts a batch. *)
let mempool ~max_batch =
  let pool = Wl.Mempool.create ~capacity:4096 in
  measure ~batch:(max_batch * 64) (fun i ->
      ignore
        (Wl.Mempool.add pool { Wl.Mempool.id = i; arrived_ms = 0.; key = 0; client = -1 } : bool);
      if i mod max_batch = 0 then ignore (Wl.Mempool.take pool ~max:max_batch : Wl.Mempool.request list))

let arrival_gap ~rate ~seed =
  let a = Wl.Arrival.poisson ~rate and rng = Rng.create seed in
  measure ~batch:20_000 (fun i ->
      ignore (Wl.Arrival.next_gap_ms a ~now_ms:(float_of_int i) rng : float))

let metrics_observe ~seed =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "bench.latency_ms" in
  let rng = Rng.create seed in
  let xs = Array.init 256 (fun _ -> Rng.float rng 5000.) in
  measure ~batch:20_000 (fun i -> Obs.Metrics.observe_h h xs.(i land 255))

let digest result =
  measure ~batch:200 (fun rep ->
      ignore (Bftsim_core.Journal.digest_of_result ~rep result : Bftsim_core.Journal.digest))
