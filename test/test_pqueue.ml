(* Property tests for the flat-lane Pqueue, the Event_queue built on it and
   the arrival calendar merged with it: each must pop in exactly the order
   a sorted-by-(priority, seq) reference model predicts, whatever
   interleaving of pushes and pops built it — this is the determinism
   contract the whole simulator rests on (§III-A2, DESIGN.md §3.15). *)

open Bftsim_sim
module Arrival_runs = Bftsim_core.Arrival_runs
module Message = Bftsim_net.Message

(* --- reference model: an ordered map keyed (priority, seq) --- *)

module Model = struct
  module Key_map = Map.Make (struct
    type t = float * int

    let compare (p1, s1) (p2, s2) = if p1 <> p2 then compare p1 p2 else compare s1 s2
  end)

  type 'a t = { mutable entries : 'a Key_map.t; mutable next_seq : int }

  let create () = { entries = Key_map.empty; next_seq = 0 }

  let push m ~priority v =
    let seq = m.next_seq in
    m.next_seq <- seq + 1;
    m.entries <- Key_map.add (priority, seq) v m.entries

  let pop m =
    match Key_map.min_binding_opt m.entries with
    | None -> None
    | Some (((p, _) as key), v) ->
      m.entries <- Key_map.remove key m.entries;
      Some (p, v)
end

(* --- scripted interleavings --- *)

(* A script is a list of operations; priorities are drawn from a small
   range so ties (the interesting case) are frequent. *)
type op = Push of float | Pop

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun p -> Push (float_of_int p)) (int_range 0 9));
        (2, return Pop);
      ])

(* Deep scripts push four times as often as they pop, so the heap reaches
   thousands of entries (five or six levels of the 4-ary layout) with its
   last child group filled to every possible degree, and ties stay heavy. *)
let deep_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun p -> Push (float_of_int p)) (int_range 0 9)); (1, return Pop) ])

let script_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map (function Push p -> Printf.sprintf "push %g" p | Pop -> "pop") ops))
    QCheck.Gen.(
      frequency
        [
          (4, list_size (int_range 0 200) op_gen);
          (1, list_size (int_range 1_000 6_000) deep_op_gen);
        ])

let run_script ops =
  let q = Pqueue.create () in
  let m = Model.create () in
  let counter = ref 0 in
  List.for_all
    (fun op ->
      match op with
      | Push p ->
        incr counter;
        Pqueue.push q ~priority:p !counter;
        Model.push m ~priority:p !counter;
        true
      | Pop -> Pqueue.pop q = Model.pop m)
    ops
  (* Drain both: every remaining entry must come out in model order too. *)
  && (let rec drain () =
        match (Pqueue.pop q, Model.pop m) with
        | None, None -> true
        | a, b when a = b -> drain ()
        | _ -> false
      in
      drain ())

let prop_matches_model =
  QCheck.Test.make ~count:500 ~name:"Pqueue pops = sorted (priority, seq) model" script_arb
    run_script

(* Equal priorities exclusively: pop order must be exactly insertion order. *)
let prop_fifo_on_ties =
  QCheck.Test.make ~count:200 ~name:"equal priorities pop FIFO"
    QCheck.(int_range 0 300)
    (fun n ->
      let q = Pqueue.create () in
      for i = 0 to n - 1 do
        Pqueue.push q ~priority:5. i
      done;
      let rec check i =
        match Pqueue.pop q with
        | None -> i = n
        | Some (_, v) -> v = i && check (i + 1)
      in
      check 0)

(* --- unit tests: NaN rejection, grow boundary, hot-path accessors --- *)

let test_nan_rejected () =
  let q = Pqueue.create () in
  Alcotest.check_raises "NaN priority"
    (Invalid_argument "Pqueue.push: NaN priority")
    (fun () -> Pqueue.push q ~priority:Float.nan ());
  Alcotest.(check int) "queue untouched" 0 (Pqueue.length q)

(* The lanes grow 0 -> 64 -> 128 -> ...; pushing 130 entries crosses both
   the first allocation and a doubling, and everything must still pop in
   model order. *)
let test_grow_boundary () =
  let q = Pqueue.create () in
  let n = 130 in
  for i = n - 1 downto 0 do
    Pqueue.push q ~priority:(float_of_int i) i
  done;
  Alcotest.(check int) "length across growth" n (Pqueue.length q);
  for i = 0 to n - 1 do
    match Pqueue.pop q with
    | Some (p, v) ->
      Alcotest.(check (float 0.)) "priority order" (float_of_int i) p;
      Alcotest.(check int) "payload order" i v
    | None -> Alcotest.fail "queue drained early"
  done;
  Alcotest.(check bool) "empty after drain" true (Pqueue.is_empty q)

let test_min_priority_pop_exn () =
  let q = Pqueue.create () in
  Alcotest.check_raises "min_priority empty"
    (Invalid_argument "Pqueue.min_priority: empty queue")
    (fun () -> ignore (Pqueue.min_priority q));
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Pqueue.pop_exn: empty queue")
    (fun () -> ignore (Pqueue.pop_exn q));
  Pqueue.push q ~priority:3. "b";
  Pqueue.push q ~priority:1. "a";
  Alcotest.(check (float 0.)) "min_priority" 1. (Pqueue.min_priority q);
  Alcotest.(check string) "pop_exn payload" "a" (Pqueue.pop_exn q);
  Alcotest.(check (float 0.)) "next min" 3. (Pqueue.min_priority q)

(* Popped and cleared slots must not retain payloads (the space-leak fix):
   observe collection of a popped payload through a weak pointer. *)
let test_no_payload_retention () =
  let q = Pqueue.create () in
  let w = Weak.create 1 in
  (let payload = Bytes.make 64 'x' in
   Weak.set w 0 (Some payload);
   Pqueue.push q ~priority:1. payload;
   ignore (Pqueue.pop_exn q));
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" true (Weak.get w 0 = None);
  let w2 = Weak.create 1 in
  (let payload = Bytes.make 64 'y' in
   Weak.set w2 0 (Some payload);
   Pqueue.push q ~priority:1. payload;
   Pqueue.clear q);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "cleared payload collected" true (Weak.get w2 0 = None)

(* --- Event_queue on top: same order, monotone clock --- *)

let prop_event_queue_matches_model =
  QCheck.Test.make ~count:300 ~name:"Event_queue pops = sorted (time, seq) model"
    QCheck.(list_of_size (Gen.int_range 0 100) (make Gen.(map float_of_int (int_range 0 20))))
    (fun times ->
      let q = Event_queue.create () in
      let m = Model.create () in
      List.iteri
        (fun i t ->
          Event_queue.schedule q ~at:(Time.of_ms t) i;
          Model.push m ~priority:t i)
        times;
      let rec check last =
        match Event_queue.next q with
        | None -> Model.pop m = None
        | Some (at, ev) -> (
          match Model.pop m with
          | Some (mt, mv) ->
            Time.to_ms at = mt && ev = mv
            && Time.to_ms at >= last
            && Time.to_ms at = Event_queue.now_ms q
            && check (Time.to_ms at)
          | None -> false)
      in
      check 0.)

(* --- The arrival calendar: the controller's delivery path --- *)

(* One step models one handled event: a burst of deliveries and alarms,
   then one pop.  The first burst is the start-up phase.  Delays mix
   scales so the calendar's paths all run: small whole offsets (0
   included, so arrivals at "now" and exact ties are frequent), fractions
   of a ms, 10-1,000 ms and up to 10^6 ms, in bursts of up to thousands,
   which make it rebuild, wrap its ring and overflow.  [Again (k, u)]
   arrives at the instant of one of the last [recent] deliveries, the
   [k]th of them that is not yet past, moved by [u] ulps: equal instants
   filed at different times, which a rebuild can file in the reverse of
   their seq order when the earlier one sat in the overflow, and instants
   an ulp or a denormal apart, at or next to a bucket's edge.  An
   alarm carries deliveries it schedules when it pops, at small offsets,
   which often land earlier than the bucket the calendar is popping.  The
   reference schedules every delivery as an event of its own, as the
   event queue did before the calendar existed.

   Mutants this property kills (each checked on a copy of the calendar):
   an insertion pass that compares arrival alone, a late threshold
   [k < cur], a scan starting at [cur + 2], and an empty overflow that
   reads as the clamped index.  A slice index without its clamp survives
   it, as a slice computed from the arrival's position in its own bucket
   leaves [0 .. m - 1] only in a bucket whose index was clamped; the edge
   test "clamped far bucket" kills it.  An equivalent mutant, horizon
   [k - cur <= nb], survives: the active slot is empty when that bucket
   lands in it. *)
type sched = Delivery of float | Again of int * int | Alarm_in of float * float list

type step = { burst : sched list; pop : bool }

let small_delay_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map float_of_int (int_range 0 3));
        (1, map (fun k -> float_of_int k /. 16.) (int_range 0 15));
      ])

let delay_gen =
  QCheck.Gen.(
    frequency
      [
        (8, small_delay_gen);
        (2, map float_of_int (int_range 10 1000));
        (1, map float_of_int (int_range 0 1_000_000));
      ])

let sched_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun d -> Delivery d) delay_gen);
        (2, map2 (fun k u -> Again (k, u)) (int_range 0 1_000) (int_range (-1) 1));
        ( 1,
          map2
            (fun d kids -> Alarm_in (d, kids))
            delay_gen
            (list_size (int_range 0 6) small_delay_gen) );
      ])

let step_gen =
  QCheck.Gen.(
    map2
      (fun burst pop -> { burst; pop })
      (frequency
         [
           (12, list_size (int_range 0 4) sched_gen);
           (4, list_size (int_range 5 40) sched_gen);
           (1, list_size (int_range 100 2000) sched_gen);
         ])
      (frequency [ (4, return true); (1, return false) ]))

let steps_arb =
  QCheck.make
    ~shrink:
      QCheck.Shrink.(
        list ~shrink:(fun { burst; pop } yield ->
            list burst (fun burst -> yield { burst; pop })))
    ~print:(fun steps ->
      String.concat " | "
        (List.map
           (fun { burst; pop } ->
             String.concat ","
               (List.map
                  (function
                    | Delivery d -> Printf.sprintf "d%g" d
                    | Again (k, u) -> Printf.sprintf "r%d%+d" k u
                    | Alarm_in (d, kids) ->
                      Printf.sprintf "a%g[%s]" d
                        (String.concat ";" (List.map (Printf.sprintf "%g") kids)))
                  burst)
             ^ if pop then " pop" else "")
           steps))
    QCheck.Gen.(list_size (int_range 1 60) step_gen)

type ev = Arrival | Alarm of int

let recent = 256

(* [u] ulps from [x]. *)
let nudge x u = if u < 0 then Float.pred x else if u > 0 then Float.succ x else x

let run_steps steps =
  let q = Event_queue.create () in
  let runs = Arrival_runs.create q ~arrival:Arrival in
  let reference = Event_queue.create () in
  let next_id = ref 0 and cell = [| 0. |] in
  let kids_of = Hashtbl.create 16 in
  let instants = Array.make recent 0. and n_instants = ref 0 in
  (* Each delivery has an envelope of its own, which names its id; it is
     sent at 0, so its delay is its arrival instant. *)
  let deliver_at at =
    incr next_id;
    let id = !next_id in
    let msg = Message.envelope ~src:0 ~sent_at:Time.zero (Message.Blob (string_of_int id)) in
    cell.(0) <- at;
    Arrival_runs.add runs msg ~dst:0 cell;
    Event_queue.schedule reference ~at:(Time.of_ms at) id;
    instants.(!n_instants mod recent) <- at;
    incr n_instants
  in
  let now () = Event_queue.now_ms q in
  let deliver d = deliver_at (now () +. d) in
  let again k u =
    let filed = Array.to_list (Array.sub instants 0 (min recent !n_instants)) in
    let future = List.filter (fun at -> at >= now ()) filed in
    match future with
    | [] -> deliver 0.
    | _ -> deliver_at (Float.max (now ()) (nudge (List.nth future (k mod List.length future)) u))
  in
  let schedule = function
    | Delivery d -> deliver d
    | Again (k, u) -> again k u
    | Alarm_in (d, kids) ->
      incr next_id;
      let id = !next_id in
      Hashtbl.replace kids_of id kids;
      Event_queue.schedule_after q ~delay_ms:d (Alarm id);
      Event_queue.schedule_after reference ~delay_ms:d id
  in
  let pop () =
    let ev = Arrival_runs.next_exn runs in
    let expected = Event_queue.next_exn reference in
    let id =
      match ev with
      | Arrival -> (
        match (Arrival_runs.current runs).Message.payload with
        | Message.Blob id -> int_of_string id
        | _ -> -1)
      | Alarm id ->
        List.iter deliver (Hashtbl.find kids_of id);
        id
    in
    id = expected && Event_queue.now_ms q = Event_queue.now_ms reference
  in
  let in_step { burst; pop = popping } =
    List.iter schedule burst;
    Arrival_runs.pending runs = Event_queue.pending reference
    && ((not popping) || Arrival_runs.is_empty runs || pop ())
    && Arrival_runs.pending runs = Event_queue.pending reference
    && Event_queue.popped q = Event_queue.popped reference
  in
  let rec drain () = Arrival_runs.is_empty runs || (pop () && drain ()) in
  List.for_all in_step steps && drain () && Event_queue.is_empty reference

let prop_arrival_runs_match_model =
  QCheck.Test.make ~count:500 ~name:"Arrival_runs pops in (time, seq) order" steps_arb
    run_steps

(* A delivery filed beyond the ring's horizon is overtaken by one filed
   within it after the ring moved on: the next bucket is then past the
   overflow's earliest, and the calendar rebuilds before popping it. *)
let test_overflow_overtaken () =
  let step burst = { burst = List.map (fun d -> Delivery d) burst; pop = true } in
  Alcotest.(check bool) "pops in (time, seq) order" true
    (run_steps [ step [ 2.; 3. ]; step [ 2.; 0.625 ]; step []; step [ 1. ] ])

(* Arrivals a denormal apart make a width that underflows to 0, so every
   index clamps to the last one, whose bucket must still be reached rather
   than taken for the overflow's (the calendar rebuilt forever). *)
let test_width_underflow () =
  let step burst = { burst = List.map (fun d -> Delivery d) burst; pop = true } in
  Alcotest.(check bool) "pops in (time, seq) order" true
    (run_steps [ step [ Float.succ 0.; 0. ]; step [ 1. ]; step [ 0.5 ] ])

(* 16,384 arrivals alternate between 1024 ms and the next double: the
   build makes 512 buckets over twice that one-ulp span, so both instants
   compute to index 2^60 and share the clamped bucket, where their
   positions compute to 0 and to 256 bucket widths.  The second instant's
   slice must be clamped to the last. *)
let test_clamped_bucket () =
  let at = 1024. in
  let burst = List.init 16384 (fun i -> Delivery (if i land 1 = 0 then at else Float.succ at)) in
  Alcotest.(check bool) "pops in (time, seq) order" true (run_steps [ { burst; pop = true } ])

(* A delivery scheduled before the current time is refused when it pops,
   as [Event_queue.schedule] refuses an event in the past. *)
let test_arrival_in_past () =
  let q = Event_queue.create () in
  let runs = Arrival_runs.create q ~arrival:Arrival in
  Event_queue.schedule q ~at:(Time.of_ms 10.) (Alarm 0);
  ignore (Arrival_runs.next_exn runs : ev);
  let msg = Message.envelope ~src:0 ~sent_at:(Time.of_ms 5.) (Message.Blob "") in
  Arrival_runs.add runs msg ~dst:0 [| 0. |];
  Alcotest.check_raises "past arrival"
    (Invalid_argument "Arrival_runs: a delivery is scheduled in the past")
    (fun () -> ignore (Arrival_runs.next_exn runs : ev))

(* A destination below 0 is kept as one sentinel, -1: the delivery pops in
   its turn and counts as an event, and the controller, which delivers
   only to [0 .. n - 1], ignores it, as it ignores a destination past the
   last node. *)
let test_out_of_range_dst () =
  let q = Event_queue.create () in
  let runs = Arrival_runs.create q ~arrival:Arrival in
  let msg = Message.envelope ~src:0 ~sent_at:Time.zero (Message.Blob "") in
  List.iter
    (fun (dst, d) -> Arrival_runs.add runs msg ~dst [| d |])
    [ (-1, 2.); (-7, 1.); (3, 3.) ];
  let pop () =
    match Arrival_runs.next_exn runs with
    | Arrival -> (Arrival_runs.current_dst runs, Event_queue.now_ms q, Event_queue.popped q)
    | Alarm _ -> Alcotest.fail "no alarm was scheduled"
  in
  let popped = List.init 3 (fun _ -> pop ()) in
  Alcotest.(check (list (triple int (float 0.) int)))
    "sentinel destinations pop in order and count"
    [ (-1, 1., 1); (-1, 2., 2); (3, 3., 3) ]
    popped;
  Alcotest.(check bool) "drained" true (Arrival_runs.is_empty runs)

(* The key packs the destination into 26 bits: [add] refuses one at or
   past 2^26 before it changes anything. *)
let test_dst_bound () =
  let q = Event_queue.create () in
  let runs = Arrival_runs.create q ~arrival:Arrival in
  let msg = Message.envelope ~src:0 ~sent_at:Time.zero (Message.Blob "") in
  Arrival_runs.add runs msg ~dst:((1 lsl 26) - 1) [| 1. |];
  Alcotest.check_raises "dst at 2^26"
    (Invalid_argument "Arrival_runs.add: destination at or past 2^26") (fun () ->
      Arrival_runs.add runs msg ~dst:(1 lsl 26) [| 1. |]);
  Alcotest.(check int) "only the first is pending" 1 (Arrival_runs.pending runs);
  ignore (Arrival_runs.next_exn runs : ev);
  Alcotest.(check int) "largest destination" ((1 lsl 26) - 1) (Arrival_runs.current_dst runs)

(* The merge primitives the calendar uses: a caller's event keyed with a
   reserved sequence number orders as if pushed at reservation time, and
   advancing to it moves the clock but refuses the past. *)
let test_precedes_and_advance () =
  let q = Event_queue.create () in
  let lane = [| 5.; 9.; 1. |] in
  Alcotest.(check bool) "empty queue never precedes" false (Event_queue.precedes q lane 0 ~seq:0);
  let early = Event_queue.reserve_seq q in
  Event_queue.schedule q ~at:(Time.of_ms 5.) "pushed";
  Alcotest.(check bool)
    "reserved seq wins the tie" false
    (Event_queue.precedes q lane 0 ~seq:early);
  Alcotest.(check bool) "later seq loses the tie" true
    (Event_queue.precedes q lane 0 ~seq:(Event_queue.reserve_seq q));
  Alcotest.(check bool) "later time loses" true (Event_queue.precedes q lane 1 ~seq:early);
  Alcotest.(check bool) "advance" true (Event_queue.advance q lane 0);
  Alcotest.(check (float 0.)) "clock" 5. (Event_queue.now_ms q);
  Alcotest.(check (float 0.)) "boxed clock" 5. (Time.to_ms (Event_queue.now q));
  Alcotest.(check bool) "advance into the past" false (Event_queue.advance q lane 2);
  Alcotest.(check int) "popped" 1 (Event_queue.popped q)

let () =
  Alcotest.run "pqueue"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_matches_model;
          QCheck_alcotest.to_alcotest prop_fifo_on_ties;
          QCheck_alcotest.to_alcotest prop_event_queue_matches_model;
          QCheck_alcotest.to_alcotest prop_arrival_runs_match_model;
        ] );
      ( "edges",
        [
          Alcotest.test_case "NaN rejected" `Quick test_nan_rejected;
          Alcotest.test_case "grow boundary" `Quick test_grow_boundary;
          Alcotest.test_case "min_priority / pop_exn" `Quick test_min_priority_pop_exn;
          Alcotest.test_case "no payload retention" `Quick test_no_payload_retention;
          Alcotest.test_case "precedes / advance" `Quick test_precedes_and_advance;
          Alcotest.test_case "arrival in the past" `Quick test_arrival_in_past;
          Alcotest.test_case "overflow overtaken" `Quick test_overflow_overtaken;
          Alcotest.test_case "width underflow" `Quick test_width_underflow;
          Alcotest.test_case "clamped far bucket" `Quick test_clamped_bucket;
          Alcotest.test_case "out-of-range destination" `Quick test_out_of_range_dst;
          Alcotest.test_case "destination bound" `Quick test_dst_bound;
        ] );
    ]
