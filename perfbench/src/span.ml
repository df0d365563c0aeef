(* Allocation-free span accounting for the traced pass.

   A span brackets one call into a layer.  [enter] pushes the start clock
   and the minor-words counter on a fixed stack; [leave] pops them, charges
   the layer its self time (span minus the spans nested inside it) and its
   self words, and adds the whole span to the parent's child totals.  All
   accumulators are float arrays, so bookkeeping itself allocates nothing
   and shows up only as time. *)

type layer = int

let handler = 0
let send = 1
let timer = 2
let decide = 3
let request_proposal = 4
let persist = 5

let names =
  [|
    "protocols.handler";
    "core.send_path";
    "core.timer";
    "core.decide";
    "workload.request_proposal";
    "core.wal.persist";
  |]

let count = Array.length names

let calls = Array.make count 0

(* Work units per layer: recipients for the send path, calls elsewhere. *)
let units = Array.make count 0

let self_ns = Array.make count 0.
let self_words = Array.make count 0.

(* Inclusive time of depth-1 spans: the part of a pass spent inside any
   layer.  Equals the sum of self times when nesting is balanced. *)
let top_ns = [| 0. |]

let max_depth = 256
let depth = ref 0
let start_ns = Array.make max_depth 0.
let start_words = Array.make max_depth 0.
let child_ns = Array.make max_depth 0.
let child_words = Array.make max_depth 0.

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let reset () =
  Array.fill calls 0 count 0;
  Array.fill units 0 count 0;
  Array.fill self_ns 0 count 0.;
  Array.fill self_words 0 count 0.;
  top_ns.(0) <- 0.;
  depth := 0

let enter () =
  let d = !depth + 1 in
  if d >= max_depth then failwith "Span.enter: nesting too deep";
  depth := d;
  Array.unsafe_set child_ns d 0.;
  Array.unsafe_set child_words d 0.;
  Array.unsafe_set start_words d (Gc.minor_words ());
  Array.unsafe_set start_ns d (now_ns ())

let leave layer n =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = !depth in
  let dt = t1 -. Array.unsafe_get start_ns d in
  let dw = w1 -. Array.unsafe_get start_words d in
  depth := d - 1;
  calls.(layer) <- calls.(layer) + 1;
  units.(layer) <- units.(layer) + n;
  self_ns.(layer) <- self_ns.(layer) +. (dt -. Array.unsafe_get child_ns d);
  self_words.(layer) <- self_words.(layer) +. (dw -. Array.unsafe_get child_words d);
  if d = 1 then top_ns.(0) <- top_ns.(0) +. dt
  else begin
    Array.unsafe_set child_ns (d - 1) (Array.unsafe_get child_ns (d - 1) +. dt);
    Array.unsafe_set child_words (d - 1) (Array.unsafe_get child_words (d - 1) +. dw)
  end

type layer_stats = { name : string; calls : int; units : int; self_s : float; words : float }

type snapshot = { layers : layer_stats array; top_s : float }

let snapshot () =
  {
    layers =
      Array.init count (fun i ->
          {
            name = names.(i);
            calls = calls.(i);
            units = units.(i);
            self_s = self_ns.(i) *. 1e-9;
            words = self_words.(i);
          });
    top_s = top_ns.(0) *. 1e-9;
  }

let self_total s = Array.fold_left (fun acc l -> acc +. l.self_s) 0. s.layers
let words_total s = Array.fold_left (fun acc l -> acc +. l.words) 0. s.layers
