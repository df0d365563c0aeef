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
   which make it rebuild, wrap its ring and overflow.  An alarm carries
   deliveries it schedules when it pops, at small offsets, which often
   land earlier than the bucket the calendar is popping.  The reference
   schedules every delivery as an event of its own, as the event queue
   did before the calendar existed. *)
type sched = Delivery of float | Alarm_in of float * float list

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
                    | Alarm_in (d, kids) ->
                      Printf.sprintf "a%g[%s]" d
                        (String.concat ";" (List.map (Printf.sprintf "%g") kids)))
                  burst)
             ^ if pop then " pop" else "")
           steps))
    QCheck.Gen.(list_size (int_range 1 60) step_gen)

type ev = Arrival | Alarm of int

let run_steps steps =
  let q = Event_queue.create () in
  let runs = Arrival_runs.create q ~arrival:Arrival in
  let reference = Event_queue.create () in
  let next_id = ref 0 in
  let kids_of = Hashtbl.create 16 in
  let deliver d =
    incr next_id;
    let id = !next_id in
    let msg = Message.envelope ~src:0 ~sent_at:(Event_queue.now q) (Message.Blob "") in
    Arrival_runs.add runs msg ~dst:0 ~id ~delay_ms:d;
    Event_queue.schedule_after reference ~delay_ms:d id
  in
  let schedule = function
    | Delivery d -> deliver d
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
      | Arrival -> Arrival_runs.current_id runs
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

(* A delivery scheduled before the current time is refused when it pops,
   as [Event_queue.schedule] refuses an event in the past. *)
let test_arrival_in_past () =
  let q = Event_queue.create () in
  let runs = Arrival_runs.create q ~arrival:Arrival in
  Event_queue.schedule q ~at:(Time.of_ms 10.) (Alarm 0);
  ignore (Arrival_runs.next_exn runs : ev);
  let msg = Message.envelope ~src:0 ~sent_at:(Time.of_ms 5.) (Message.Blob "") in
  Arrival_runs.add runs msg ~dst:0 ~id:1 ~delay_ms:0.;
  Alcotest.check_raises "past arrival"
    (Invalid_argument "Arrival_runs: a delivery is scheduled in the past")
    (fun () -> ignore (Arrival_runs.next_exn runs : ev))

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
        ] );
    ]
