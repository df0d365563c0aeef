type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
  p99 : float;
}

let percentile samples p =
  if samples = [] then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = List.sort Float.compare samples in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then arr.(lo)
    else
      let w = rank -. float_of_int lo in
      (arr.(lo) *. (1. -. w)) +. (arr.(hi) *. w)
  end

let of_list samples =
  if samples = [] then invalid_arg "Stats.of_list: empty";
  let count = List.length samples in
  let fcount = float_of_int count in
  let mean = List.fold_left ( +. ) 0. samples /. fcount in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. samples /. fcount
  in
  {
    count;
    mean;
    stddev = sqrt var;
    min = List.fold_left Float.min infinity samples;
    max = List.fold_left Float.max neg_infinity samples;
    median = percentile samples 50.;
    p95 = percentile samples 95.;
    p99 = percentile samples 99.;
  }

let pp ppf t =
  Format.fprintf ppf "%.1f ± %.1f (n=%d, p50/p95/p99 %.1f/%.1f/%.1f)" t.mean t.stddev t.count
    t.median t.p95 t.p99

let pp_ms_as_s ppf t =
  Format.fprintf ppf "%.2fs ± %.2fs (n=%d, p50/p95/p99 %.2f/%.2f/%.2fs)" (t.mean /. 1000.)
    (t.stddev /. 1000.) t.count (t.median /. 1000.) (t.p95 /. 1000.) (t.p99 /. 1000.)
