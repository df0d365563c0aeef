(* One timed pass of a workload, and the layer breakdown of a traced one. *)

type pass = { raws : Workloads.raw list; secs : float; words : float; events : int }

let now_s () = Span.now_ns () *. 1e-9

(* Each pass starts from a compacted heap holding only live data, so the
   major-GC work a pass pays for is its own garbage, and every pass of a
   workload reaches the same peak memory whatever the pass count. *)
let timed_pass ?jobs ?edit w =
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let t0 = now_s () in
  let raws = Workloads.pass ?jobs ?edit w in
  let t1 = now_s () in
  let w1 = Gc.minor_words () in
  {
    raws;
    secs = t1 -. t0;
    words = w1 -. w0;
    events = List.fold_left (fun a r -> a + Workloads.events_of r) 0 raws;
  }

type traced = { pass : pass; span : Span.snapshot }

(* Traced passes run on the calling domain only: spans live in globals. *)
let traced_pass w =
  Span.reset ();
  let pass = timed_pass ~edit:Workloads.traced_edit w in
  { pass; span = Span.snapshot () }

(* Everything in a traced pass that no layer span covers: the event loop,
   the controller's dispatch and, under load, the arrival pump. *)
let residual_s t = t.pass.secs -. Span.self_total t.span
let residual_words t = t.pass.words -. Span.words_total t.span

type layer_avg = { calls : float; units : float; self_s : float; words : float }

(* Per-pass averages over several traced passes. *)
let layers (ts : traced list) =
  let k = float_of_int (List.length ts) in
  let avg f = List.fold_left (fun a t -> a +. f t) 0. ts /. k in
  Array.init Span.count (fun i ->
      let get f = avg (fun t -> f t.span.Span.layers.(i)) in
      {
        calls = get (fun l -> float_of_int l.Span.calls);
        units = get (fun l -> float_of_int l.Span.units);
        self_s = get (fun l -> l.Span.self_s);
        words = get (fun l -> l.Span.words);
      })

type loop = { loop_events : float; loop_s : float; loop_words : float }

let event_loop (ts : traced list) =
  let k = float_of_int (List.length ts) in
  let avg f = List.fold_left (fun a t -> a +. f t) 0. ts /. k in
  {
    loop_events = avg (fun t -> float_of_int t.pass.events);
    loop_s = avg residual_s;
    loop_words = avg residual_words;
  }

let per x n = if n > 0. then x /. n else 0.
