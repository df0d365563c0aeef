(* Metrics registry: named counters, gauges and fixed-bucket histograms.

   One registry belongs to one simulation run (the controller creates it
   and attaches it to the result), so recording never synchronizes —
   concurrent runs on different domains each write their own registry, the
   same confinement discipline as the Simlog clock.  Cross-run aggregation
   happens after the fact through [merge], which folds registries in the
   order given (the runner passes seed order), making the merged registry
   a deterministic function of the run set alone — independent of how many
   domains produced it.

   Determinism rule: registry values must derive only from simulated
   quantities (event counts, simulated delays, sizes).  Wall-clock numbers
   are nondeterministic and belong to the tracer, never to a registry —
   otherwise merged summaries stop being bit-identical across pool sizes. *)

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length = Array.length bounds + 1; last = overflow *)
  mutable sum : float;
  mutable count : int;
  mutable vmin : float;
  mutable vmax : float;
}

type cell = Counter of int ref | Gauge of float ref | Histogram of histogram

type t = { cells : (string, cell) Hashtbl.t }

let create () = { cells = Hashtbl.create 64 }

(* Latency-flavoured default: sub-ms to tens of seconds, log-ish spacing. *)
let default_buckets =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000.; 30000. |]

let validate_bounds bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metrics: histogram needs at least one bucket bound";
  for i = 0 to n - 2 do
    if bounds.(i) >= bounds.(i + 1) then
      invalid_arg "Metrics: histogram bounds must be strictly increasing"
  done

let fresh_histogram bounds =
  validate_bounds bounds;
  {
    bounds = Array.copy bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    sum = 0.;
    count = 0;
    vmin = infinity;
    vmax = neg_infinity;
  }

let type_error name = invalid_arg (Printf.sprintf "Metrics: %S already registered with another type" name)

let counter t name =
  match Hashtbl.find_opt t.cells name with
  | Some (Counter r) -> r
  | Some _ -> type_error name
  | None ->
    let r = ref 0 in
    Hashtbl.replace t.cells name (Counter r);
    r

let incr ?(by = 1) t name =
  let r = counter t name in
  r := !r + by

let gauge t name =
  match Hashtbl.find_opt t.cells name with
  | Some (Gauge r) -> r
  | Some _ -> type_error name
  | None ->
    let r = ref 0. in
    Hashtbl.replace t.cells name (Gauge r);
    r

let set_gauge t name v = gauge t name := v

let histogram ?(buckets = default_buckets) t name =
  match Hashtbl.find_opt t.cells name with
  | Some (Histogram h) -> h
  | Some _ -> type_error name
  | None ->
    let h = fresh_histogram buckets in
    Hashtbl.replace t.cells name (Histogram h);
    h

let observe_h h v =
  let n = Array.length h.bounds in
  (* Bucket i holds values <= bounds.(i) (and > bounds.(i-1)); the trailing
     slot is the overflow bucket.  Linear scan: bucket arrays are short. *)
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do
    Stdlib.incr i
  done;
  h.counts.(!i) <- h.counts.(!i) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v

let observe ?buckets t name v = observe_h (histogram ?buckets t name) v

(* Disabled-path sink: a pre-resolved handle that goes nowhere, so
   instrumented hot paths pay one increment on a dead cell instead of a
   branch plus a hash lookup.  Fresh per call site — sharing one across
   domains would be a benign but noisy data race. *)
let null_counter () = ref 0

(* --- snapshots (deterministic order) --- *)

type histogram_snapshot = {
  s_bounds : float array;
  s_counts : int array;
  s_sum : float;
  s_count : int;
  s_min : float;
  s_max : float;
}

type value = Counter_v of int | Gauge_v of float | Histogram_v of histogram_snapshot

let snapshot_h h =
  {
    s_bounds = Array.copy h.bounds;
    s_counts = Array.copy h.counts;
    s_sum = h.sum;
    s_count = h.count;
    s_min = h.vmin;
    s_max = h.vmax;
  }

let snapshot t =
  Hashtbl.fold
    (fun name cell acc ->
      let v =
        match cell with
        | Counter r -> Counter_v !r
        | Gauge r -> Gauge_v !r
        | Histogram h -> Histogram_v (snapshot_h h)
      in
      (name, v) :: acc)
    t.cells []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Quantile estimate from bucket counts: find the bucket holding the rank,
   interpolate linearly inside it (observed min/max clamp the ends, so the
   estimate never leaves the observed range). *)
let quantile_of_snapshot hs p =
  if p < 0. || p > 100. then invalid_arg "Metrics.quantile: p out of range";
  if hs.s_count = 0 then Float.nan
  else begin
    let rank = p /. 100. *. float_of_int hs.s_count in
    let nb = Array.length hs.s_counts in
    let rec walk i cum =
      if i >= nb then hs.s_max
      else
        let cum' = cum +. float_of_int hs.s_counts.(i) in
        if cum' >= rank && hs.s_counts.(i) > 0 then begin
          let lower =
            if i = 0 then hs.s_min else Float.max hs.s_min hs.s_bounds.(i - 1)
          in
          let upper =
            if i < Array.length hs.s_bounds then Float.min hs.s_max hs.s_bounds.(i)
            else hs.s_max
          in
          let inside = (rank -. cum) /. float_of_int hs.s_counts.(i) in
          lower +. ((upper -. lower) *. Float.max 0. (Float.min 1. inside))
        end
        else walk (i + 1) cum'
    in
    walk 0 0.
  end

(* --- merging --- *)

(* Fold registries in list order; the result depends only on that order:
   counters add, gauges keep the maximum (the only order-free combination
   that still means something for end-of-run levels), histograms add
   bucket-wise (bucket layouts for one name must agree — they come from the
   same instrumentation site). *)
let merge ts =
  let out = create () in
  List.iter
    (fun t ->
      List.iter
        (fun (name, v) ->
          match v with
          | Counter_v c -> incr ~by:c out name
          | Gauge_v g -> (
            match Hashtbl.find_opt out.cells name with
            | Some (Gauge r) -> r := Float.max !r g
            | Some _ -> type_error name
            | None -> set_gauge out name g)
          | Histogram_v hs ->
            let h =
              match Hashtbl.find_opt out.cells name with
              | Some (Histogram h) ->
                if h.bounds <> hs.s_bounds then
                  invalid_arg
                    (Printf.sprintf "Metrics.merge: %S has mismatched bucket layouts" name);
                h
              | Some _ -> type_error name
              | None ->
                let h = fresh_histogram hs.s_bounds in
                Hashtbl.replace out.cells name (Histogram h);
                h
            in
            Array.iteri (fun i c -> h.counts.(i) <- h.counts.(i) + c) hs.s_counts;
            h.sum <- h.sum +. hs.s_sum;
            h.count <- h.count + hs.s_count;
            if hs.s_min < h.vmin then h.vmin <- hs.s_min;
            if hs.s_max > h.vmax then h.vmax <- hs.s_max)
        (snapshot t))
    ts;
  out

(* --- rendering --- *)

let pp ppf t =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v c -> Format.fprintf ppf "%-32s %d@." name c
      | Gauge_v g -> Format.fprintf ppf "%-32s %g@." name g
      | Histogram_v hs ->
        if hs.s_count = 0 then Format.fprintf ppf "%-32s count=0@." name
        else
          Format.fprintf ppf "%-32s count=%d sum=%g min=%g max=%g p50=%g p95=%g p99=%g@." name
            hs.s_count hs.s_sum hs.s_min hs.s_max
            (quantile_of_snapshot hs 50.)
            (quantile_of_snapshot hs 95.)
            (quantile_of_snapshot hs 99.))
    (snapshot t)

(* Cell kinds are tagged explicitly: an untagged encoding cannot tell a
   counter from a gauge that happens to hold an integral value (the codec
   prints 16.0 as "16"), and [of_json] must reconstruct the exact registry
   for the journal-resume byte-identity guarantee. *)
let to_json t =
  Json.Assoc
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Counter_v c -> Json.Assoc [ ("counter", Json.Int c) ]
           | Gauge_v g -> Json.Assoc [ ("gauge", Json.Float g) ]
           | Histogram_v hs ->
             Json.Assoc
               [
                 ( "histogram",
                   Json.Assoc
                     ([
                        ( "bounds",
                          Json.List (Array.to_list hs.s_bounds |> List.map (fun b -> Json.Float b)) );
                        ( "counts",
                          Json.List (Array.to_list hs.s_counts |> List.map (fun c -> Json.Int c)) );
                        ("sum", Json.Float hs.s_sum);
                        ("count", Json.Int hs.s_count);
                      ]
                     @
                     (* min/max have no JSON spelling when empty (±inf);
                        omitting them restores the empty-histogram state. *)
                     if hs.s_count = 0 then []
                     else [ ("min", Json.Float hs.s_min); ("max", Json.Float hs.s_max) ]) );
               ] ))
       (snapshot t))

let of_json json =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let number name = function
    | Some (Json.Int i) -> Ok (float_of_int i)
    | Some (Json.Float f) -> Ok f
    | _ -> err "Metrics.of_json: %s is not a number" name
  in
  let int_field name = function
    | Some (Json.Int i) -> Ok i
    | _ -> err "Metrics.of_json: %s is not an integer" name
  in
  match json with
  | Json.Assoc cells ->
    let t = create () in
    let rec go = function
      | [] -> Ok t
      | (name, cell) :: rest -> (
        match cell with
        | Json.Assoc [ ("counter", Json.Int c) ] ->
          incr ~by:c t name;
          go rest
        | Json.Assoc [ ("gauge", g) ] ->
          let* v = number name (Some g) in
          set_gauge t name v;
          go rest
        | Json.Assoc [ ("histogram", (Json.Assoc _ as h)) ] ->
          let* bounds =
            match Json.member "bounds" h with
            | Some (Json.List bs) ->
              let rec nums acc = function
                | [] -> Ok (Array.of_list (List.rev acc))
                | b :: bs ->
                  let* v = number (name ^ ".bounds") (Some b) in
                  nums (v :: acc) bs
              in
              nums [] bs
            | _ -> err "Metrics.of_json: %s has no bounds list" name
          in
          let* counts =
            match Json.member "counts" h with
            | Some (Json.List cs) ->
              let rec ints acc = function
                | [] -> Ok (Array.of_list (List.rev acc))
                | c :: cs ->
                  let* v = int_field (name ^ ".counts") (Some c) in
                  ints (v :: acc) cs
              in
              ints [] cs
            | _ -> err "Metrics.of_json: %s has no counts list" name
          in
          if Array.length counts <> Array.length bounds + 1 then
            err "Metrics.of_json: %s bounds/counts length mismatch" name
          else
            let* sum = number (name ^ ".sum") (Json.member "sum" h) in
            let* count = int_field (name ^ ".count") (Json.member "count" h) in
            let* vmin =
              if count = 0 then Ok infinity else number (name ^ ".min") (Json.member "min" h)
            in
            let* vmax =
              if count = 0 then Ok neg_infinity else number (name ^ ".max") (Json.member "max" h)
            in
            (match histogram ~buckets:bounds t name with
            | hist ->
              Array.blit counts 0 hist.counts 0 (Array.length counts);
              hist.sum <- sum;
              hist.count <- count;
              hist.vmin <- vmin;
              hist.vmax <- vmax;
              go rest
            | exception Invalid_argument m -> Error m)
        | _ -> err "Metrics.of_json: unrecognized cell %S" name)
    in
    go cells
  | _ -> Error "Metrics.of_json: expected an object of cells"

let equal a b = snapshot a = snapshot b
