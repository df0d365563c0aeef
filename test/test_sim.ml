(* Unit and property tests for the simulation substrate: virtual time, the
   deterministic priority queue, the event queue / clock, and the RNG. *)

open Bftsim_sim

let check_float = Alcotest.(check (float 1e-9))

(* --- Time --- *)

let test_time_construction () =
  check_float "zero is 0 ms" 0. (Time.to_ms Time.zero);
  check_float "of_ms round-trips" 1234.5 (Time.to_ms (Time.of_ms 1234.5));
  check_float "of_sec scales" 2500. (Time.to_ms (Time.of_sec 2.5));
  check_float "to_sec scales" 2.5 (Time.to_sec (Time.of_ms 2500.))

let test_time_invalid () =
  Alcotest.check_raises "negative rejected" (Invalid_argument "Time.of_ms: -1.000000") (fun () ->
      ignore (Time.of_ms (-1.)));
  (match Time.of_ms Float.nan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN accepted");
  match Time.of_ms Float.infinity with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "infinity accepted"

let test_time_arithmetic () =
  let t = Time.of_ms 100. in
  check_float "add_ms" 150. (Time.to_ms (Time.add_ms t 50.));
  check_float "add_ms negative clamps at zero" 0. (Time.to_ms (Time.add_ms t (-200.)));
  check_float "diff_ms" 60. (Time.diff_ms (Time.of_ms 100.) (Time.of_ms 40.));
  check_float "diff_ms negative" (-60.) (Time.diff_ms (Time.of_ms 40.) (Time.of_ms 100.))

let test_time_order () =
  let a = Time.of_ms 1. and b = Time.of_ms 2. in
  Alcotest.(check bool) "is_before" true (Time.is_before a b);
  Alcotest.(check bool) "not before self" false (Time.is_before a a);
  Alcotest.(check int) "compare" (-1) (Time.compare a b);
  Alcotest.(check bool) "equal" true (Time.equal a (Time.of_ms 1.));
  check_float "min" 1. (Time.to_ms (Time.min a b));
  check_float "max" 2. (Time.to_ms (Time.max a b))

let test_time_pp () =
  Alcotest.(check string) "renders seconds" "12.345s" (Time.to_string (Time.of_ms 12345.))

(* --- Pqueue --- *)

let test_pqueue_basic () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "fresh queue empty" true (Pqueue.is_empty q);
  Pqueue.push q ~priority:3. "c";
  Pqueue.push q ~priority:1. "a";
  Pqueue.push q ~priority:2. "b";
  Alcotest.(check int) "length" 3 (Pqueue.length q);
  Alcotest.(check (option (pair (float 0.) string))) "peek is min" (Some (1., "a")) (Pqueue.peek q);
  Alcotest.(check (option (pair (float 0.) string))) "pop min" (Some (1., "a")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.) string))) "then next" (Some (2., "b")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.) string))) "then last" (Some (3., "c")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.) string))) "then empty" None (Pqueue.pop q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q ~priority:5. v) [ "first"; "second"; "third" ];
  Pqueue.push q ~priority:1. "early";
  let order = List.init 4 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list string))
    "ties pop in insertion order"
    [ "early"; "first"; "second"; "third" ]
    order

let test_pqueue_nan_rejected () =
  let q = Pqueue.create () in
  match Pqueue.push q ~priority:Float.nan "x" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "NaN priority accepted"

let test_pqueue_clear () =
  let q = Pqueue.create () in
  for i = 1 to 10 do
    Pqueue.push q ~priority:(float_of_int i) i
  done;
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q);
  Pqueue.push q ~priority:1. 42;
  Alcotest.(check (option (pair (float 0.) int))) "usable after clear" (Some (1., 42)) (Pqueue.pop q)

let test_pqueue_to_sorted_list () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~priority:p (int_of_float p)) [ 5.; 1.; 3.; 2.; 4. ];
  let snapshot = Pqueue.to_sorted_list q in
  Alcotest.(check (list int)) "sorted snapshot" [ 1; 2; 3; 4; 5 ] (List.map snd snapshot);
  Alcotest.(check int) "snapshot is non-destructive" 5 (Pqueue.length q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing priority order" ~count:300
    QCheck.(list (float_bound_exclusive 1e6))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q ~priority:p i) priorities;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

let prop_pqueue_preserves_all =
  QCheck.Test.make ~name:"pqueue returns exactly the pushed elements" ~count:300
    QCheck.(list small_nat)
    (fun xs ->
      let q = Pqueue.create () in
      List.iter (fun x -> Pqueue.push q ~priority:(float_of_int x) x) xs;
      let rec drain acc = match Pqueue.pop q with None -> acc | Some (_, v) -> drain (v :: acc) in
      List.sort compare (drain []) = List.sort compare xs)

(* Determinism under ties: replayability rests on equal-priority entries
   popping in insertion order, i.e. the heap realizes a stable sort.  Draw
   priorities from a tiny set so collisions are the common case. *)
let prop_pqueue_ties_fifo =
  QCheck.Test.make ~name:"pqueue equal priorities pop in insertion order" ~count:300
    QCheck.(list (int_range 0 3))
    (fun buckets ->
      let q = Pqueue.create () in
      List.iteri (fun i b -> Pqueue.push q ~priority:(float_of_int b) (i, b)) buckets;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
      in
      let expected =
        List.stable_sort (fun (_, a) (_, b) -> compare a b) (List.mapi (fun i b -> (i, b)) buckets)
      in
      drain [] = expected)

let prop_event_queue_tie_determinism =
  QCheck.Test.make ~name:"identical schedules drain identically, ties included" ~count:200
    QCheck.(list (pair (int_range 0 5) small_nat))
    (fun events ->
      let drain () =
        let q = Event_queue.create () in
        List.iter
          (fun (t, v) -> Event_queue.schedule q ~at:(Time.of_ms (float_of_int t)) v)
          events;
        let rec go acc =
          match Event_queue.next q with
          | None -> List.rev acc
          | Some (at, v) -> go ((Time.to_ms at, v) :: acc)
        in
        go []
      in
      drain () = drain ())

(* --- Event_queue --- *)

let test_event_queue_clock_advances () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~at:(Time.of_ms 10.) "a";
  Event_queue.schedule q ~at:(Time.of_ms 5.) "b";
  let t1, v1 = Option.get (Event_queue.next q) in
  check_float "clock at first event" 5. (Time.to_ms t1);
  Alcotest.(check string) "first event" "b" v1;
  check_float "now tracks pop" 5. (Time.to_ms (Event_queue.now q));
  let t2, _ = Option.get (Event_queue.next q) in
  check_float "clock advances" 10. (Time.to_ms t2)

let test_event_queue_rejects_past () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~at:(Time.of_ms 10.) "a";
  ignore (Event_queue.next q);
  match Event_queue.schedule q ~at:(Time.of_ms 5.) "too late" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "scheduling into the past accepted"

let test_event_queue_schedule_after () =
  let q = Event_queue.create () in
  Event_queue.schedule_after q ~delay_ms:100. "x";
  Event_queue.schedule_after q ~delay_ms:(-5.) "clamped";
  let t1, v1 = Option.get (Event_queue.next q) in
  check_float "negative delay clamps to now" 0. (Time.to_ms t1);
  Alcotest.(check string) "clamped event first" "clamped" v1;
  let t2, _ = Option.get (Event_queue.next q) in
  check_float "relative delay" 100. (Time.to_ms t2)

let test_event_queue_counters () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~at:(Time.of_ms 1.) ();
  Event_queue.schedule q ~at:(Time.of_ms 2.) ();
  Alcotest.(check int) "pending" 2 (Event_queue.pending q);
  Alcotest.(check int) "popped initially 0" 0 (Event_queue.popped q);
  Alcotest.(check (option (float 0.)))
    "peek_time" (Some 1.)
    (Option.map Time.to_ms (Event_queue.peek_time q));
  ignore (Event_queue.next q);
  Alcotest.(check int) "pending decrements" 1 (Event_queue.pending q);
  Alcotest.(check int) "popped increments" 1 (Event_queue.popped q)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_copy_and_split () =
  let a = Rng.create 7 in
  let c = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 c);
  let a = Rng.create 7 in
  let child = Rng.split a in
  let x = Rng.bits64 child and y = Rng.bits64 a in
  Alcotest.(check bool) "split child independent of parent" true (x <> y)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of bounds: %d" v
  done;
  (match Rng.int rng 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound 0 accepted");
  for _ = 1 to 200 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    if v < -5 || v > 5 then Alcotest.failf "int_in_range out of bounds: %d" v
  done

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "float out of bounds: %f" v
  done;
  for _ = 1 to 1000 do
    let v = Rng.uniform rng ~lo:10. ~hi:20. in
    if v < 10. || v >= 20. then Alcotest.failf "uniform out of bounds: %f" v
  done

let mean_std samples =
  let n = float_of_int (List.length samples) in
  let mean = List.fold_left ( +. ) 0. samples /. n in
  let var = List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. samples /. n in
  (mean, sqrt var)

let test_rng_normal_moments () =
  let rng = Rng.create 5 in
  let samples = List.init 20_000 (fun _ -> Rng.normal rng ~mu:100. ~sigma:15.) in
  let mean, std = mean_std samples in
  Alcotest.(check bool) "mean within 1%" true (Float.abs (mean -. 100.) < 1.);
  Alcotest.(check bool) "std within 5%" true (Float.abs (std -. 15.) < 0.75)

let test_rng_truncated_normal () =
  let rng = Rng.create 6 in
  for _ = 1 to 5000 do
    let v = Rng.truncated_normal rng ~mu:10. ~sigma:50. ~lo:0. in
    if v < 0. then Alcotest.failf "truncated normal below bound: %f" v
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 7 in
  let samples = List.init 20_000 (fun _ -> Rng.exponential rng ~mean:250.) in
  let mean, _ = mean_std samples in
  Alcotest.(check bool) "exponential mean within 3%" true (Float.abs (mean -. 250.) < 7.5)

let test_rng_poisson_mean () =
  let rng = Rng.create 8 in
  let samples = List.init 20_000 (fun _ -> float_of_int (Rng.poisson rng ~mean:12.)) in
  let mean, _ = mean_std samples in
  Alcotest.(check bool) "poisson mean within 2%" true (Float.abs (mean -. 12.) < 0.24)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 (fun i -> i)) sorted;
  Alcotest.(check bool) "shuffle moved something" true (arr <> Array.init 50 (fun i -> i))

let test_rng_pick () =
  let rng = Rng.create 10 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    let v = Rng.pick rng arr in
    if not (Array.mem v arr) then Alcotest.failf "pick returned foreign element %s" v
  done;
  match Rng.pick rng [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pick accepted"

(* The first draws of every sampler for two seeds.  Every golden
   fingerprint rests on these streams, so a change of the generator's
   representation or of a sampler must reproduce them bit for bit; floats
   are compared through their hexadecimal rendering. *)
let rng_pins =
  [
    ( 1,
      [ 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L; 0xf440fe3b62c79d2cL ],
      [ 162; 791; 623; 292 ],
      [ "0x1.7fdf0061bb85ap-1"; "0x1.7d54b3920bcaap-2"; "0x1.c0cd7f0f6bcf6p-2"; "0x1.e881fc76c58f3p-1" ],
      [ "0x1.7054cf21f48cbp+6"; "0x1.d9e2bd6f50ed1p+6"; "0x1.378af9075a7d5p+6"; "0x1.ad762549f0aeep+6" ],
      [ "0x1.1e49221db86b9p+6"; "0x1.1468f89799e35p+5"; "0x1.088ae63e5ff8p+6"; "0x1.ff34f3ec1434cp+3" ],
      [ "0x1.20048effc7309p+6"; "0x1.ede6f66bd095ep+7"; "0x1.9c71b6c989c22p+7"; "0x1.77c1114fa5e8ep+3" ],
      [ 48; 64; 43; 44 ],
      [ 4; 3; 4; 2 ] );
    ( 0xC0FFEE,
      [ 0xbfa0a00efa4b3e10L; 0xeba44047baed2abfL; 0xcfc11f60e6673934L; 0x31a47fb3fd6839e6L ],
      [ 320; 663; 652; 198 ],
      [ "0x1.7f41401df4967p-1"; "0x1.d748808f75da5p-1"; "0x1.9f823ec1ccce7p-1"; "0x1.8d23fd9feb41cp-3" ],
      [ "0x1.b81501b18a44ep+6"; "0x1.9d61f97fcd093p+6"; "0x1.53177dcd62864p+6"; "0x1.94dad0f79c25ap+6" ],
      [ "0x1.5b36b5f4ef205p+5"; "0x1.526fa952add04p+4"; "0x1.c175c4759940dp+3"; "0x1.58854b07f749cp+6" ],
      [ "0x1.219fd632f6f34p+6"; "0x1.4b762ed70fdc8p+4"; "0x1.a1a44d7b33e1cp+5"; "0x1.9a15087161117p+8" ],
      [ 48; 60; 56; 48 ],
      [ 4; 2; 2; 0 ] );
  ]

let test_rng_pinned_streams () =
  List.iter
    (fun (seed, bits, ints, floats, normals, truncs, exps, poisson50, poisson3) ->
      let draws f =
        let rng = Rng.create seed in
        List.init 4 (fun _ -> f rng)
      in
      let hex f = draws (fun rng -> Printf.sprintf "%h" (f rng)) in
      let name s = Printf.sprintf "seed %d: %s" seed s in
      Alcotest.(check (list int64)) (name "bits64") bits (draws Rng.bits64);
      Alcotest.(check (list int)) (name "int 1000") ints (draws (fun rng -> Rng.int rng 1000));
      Alcotest.(check (list string)) (name "float") floats (hex (fun rng -> Rng.float rng 1.0));
      Alcotest.(check (list string))
        (name "normal") normals
        (hex (fun rng -> Rng.normal rng ~mu:100. ~sigma:15.));
      Alcotest.(check (list string))
        (name "truncated_normal") truncs
        (hex (fun rng -> Rng.truncated_normal rng ~mu:10. ~sigma:50. ~lo:0.));
      (* The network's draw writes the same stream into a cell. *)
      Alcotest.(check (list string))
        (name "truncated_normal_into") truncs
        (hex (fun rng ->
             let cell = [| nan |] in
             Rng.truncated_normal_into rng ~mu:10. ~sigma:50. ~lo:0. cell;
             cell.(0)));
      Alcotest.(check (list string))
        (name "exponential") exps
        (hex (fun rng -> Rng.exponential rng ~mean:250.));
      Alcotest.(check (list int))
        (name "poisson 50") poisson50
        (draws (fun rng -> Rng.poisson rng ~mean:50.));
      Alcotest.(check (list int))
        (name "poisson 3") poisson3
        (draws (fun rng -> Rng.poisson rng ~mean:3.)))
    rng_pins

(* Knuth's product of uniforms underflows once e^-mean does (mean > ~745),
   which used to pin every large-mean draw near 746.  The sample mean of
   2,000 draws must sit within 4 standard errors of the true mean. *)
let test_rng_poisson_large_mean () =
  List.iter
    (fun mean ->
      let rng = Rng.create 11 in
      let k = 2_000 in
      let sum = ref 0 in
      for _ = 1 to k do
        sum := !sum + Rng.poisson rng ~mean
      done;
      let sample_mean = float_of_int !sum /. float_of_int k in
      let se = sqrt (mean /. float_of_int k) in
      if Float.abs (sample_mean -. mean) > 4. *. se then
        Alcotest.failf "poisson mean %g: sample mean %.2f outside 4 sigma (%.2f)" mean
          sample_mean (4. *. se))
    [ 750.; 1_000.; 5_000. ];
  let rng = Rng.create 1 in
  List.iter
    (fun mean ->
      match Rng.poisson rng ~mean with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "poisson accepted mean %g" mean)
    [ -1.; Float.infinity; Float.nan ]

(* Minor words per call over 1,000 calls: the state is unboxed and the
   samplers build no closures, so a draw allocates only the boxed float it
   returns across the module boundary, and a draw into a cell nothing. *)
let test_rng_alloc_budget () =
  let rng = Rng.create 3 and cell = [| 0. |] in
  let words f =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to 1_000 do
      f ()
    done;
    (Gc.minor_words () -. before) /. 1_000.
  in
  let w = words (fun () -> ignore (Rng.truncated_normal rng ~mu:10. ~sigma:50. ~lo:0. : float)) in
  if w > 8. then Alcotest.failf "Rng.truncated_normal: %.1f minor words per call > 8" w;
  let w = words (fun () -> Rng.truncated_normal_into rng ~mu:10. ~sigma:50. ~lo:0. cell) in
  if w > 0. then Alcotest.failf "Rng.truncated_normal_into: %.3f minor words per call > 0" w

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"rng int covers the full range" ~count:50
    QCheck.(int_range 2 40)
    (fun bound ->
      let rng = Rng.create bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Rng.int rng bound) <- true
      done;
      Array.for_all (fun b -> b) seen)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "construction" `Quick test_time_construction;
          Alcotest.test_case "invalid inputs" `Quick test_time_invalid;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "ordering" `Quick test_time_order;
          Alcotest.test_case "printing" `Quick test_time_pp;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "basic order" `Quick test_pqueue_basic;
          Alcotest.test_case "fifo tie-breaking" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "nan rejected" `Quick test_pqueue_nan_rejected;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "sorted snapshot" `Quick test_pqueue_to_sorted_list;
          qc prop_pqueue_sorted;
          qc prop_pqueue_preserves_all;
          qc prop_pqueue_ties_fifo;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "clock advances with pops" `Quick test_event_queue_clock_advances;
          Alcotest.test_case "past scheduling rejected" `Quick test_event_queue_rejects_past;
          Alcotest.test_case "relative scheduling" `Quick test_event_queue_schedule_after;
          Alcotest.test_case "counters" `Quick test_event_queue_counters;
          qc prop_event_queue_tie_determinism;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy and split" `Quick test_rng_copy_and_split;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "normal moments" `Slow test_rng_normal_moments;
          Alcotest.test_case "truncated normal bound" `Quick test_rng_truncated_normal;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "poisson mean" `Slow test_rng_poisson_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
          Alcotest.test_case "poisson large mean" `Quick test_rng_poisson_large_mean;
          Alcotest.test_case "truncated normal allocation" `Quick test_rng_alloc_budget;
          qc prop_rng_int_uniformish;
        ] );
    ]
