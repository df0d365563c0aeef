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

(* Linear interpolation at rank [p/100 * (n-1)] of a sorted, non-empty
   array. *)
let interpolate arr p =
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

(* One stable sort, with the comparator [List.sort] was given, so equal
   samples keep their list order and every percentile read from the array
   is the one a sort per percentile gave. *)
let sort arr = Array.stable_sort Float.compare arr

let percentile samples p =
  if samples = [] then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let arr = Array.of_list samples in
  sort arr;
  interpolate arr p

(* The sums run in list order, as folds over the list would, before the
   array is sorted. *)
let of_list samples =
  if samples = [] then invalid_arg "Stats.of_list: empty";
  let arr = Array.of_list samples in
  let count = Array.length arr in
  let fcount = float_of_int count in
  let sum = ref 0. and lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to count - 1 do
    let x = arr.(i) in
    sum := !sum +. x;
    lo := Float.min !lo x;
    hi := Float.max !hi x
  done;
  let mean = !sum /. fcount in
  let sq = ref 0. in
  for i = 0 to count - 1 do
    let d = arr.(i) -. mean in
    sq := !sq +. (d *. d)
  done;
  sort arr;
  {
    count;
    mean;
    stddev = sqrt (!sq /. fcount);
    min = !lo;
    max = !hi;
    median = interpolate arr 50.;
    p95 = interpolate arr 95.;
    p99 = interpolate arr 99.;
  }

let pp ppf t =
  Format.fprintf ppf "%.1f ± %.1f (n=%d, p50/p95/p99 %.1f/%.1f/%.1f)" t.mean t.stddev t.count
    t.median t.p95 t.p99

let pp_ms_as_s ppf t =
  Format.fprintf ppf "%.2fs ± %.2fs (n=%d, p50/p95/p99 %.2f/%.2f/%.2fs)" (t.mean /. 1000.)
    (t.stddev /. 1000.) t.count (t.median /. 1000.) (t.p95 /. 1000.) (t.p99 /. 1000.)
