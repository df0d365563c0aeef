(* The arrival calendar (DESIGN.md §3.15), after R. Brown's calendar queue
   (CACM 31(10), 1988).

   Every pending delivery sits in one of three places, each earlier than
   the next in (arrival, seq) order:
   - the active bucket, sorted when the clock reached it, merged by
     (arrival, seq) with the late heap, which holds the deliveries
     scheduled into or before the active bucket after it was sorted (the
     zero-delay self-delivery of a broadcast, or a delivery scheduled by
     an alarm that pops first);
   - the ring: [nb] buckets of [width] ms each, in no order within a
     bucket, for the bucket indices [cur + 1 .. cur + nb - 1];
   - the overflow, unsorted, for the deliveries beyond the ring's horizon.
   A bucket's index [floor (at / width)] is monotone in the arrival time,
   so a bucket holds only deliveries later than every earlier bucket's.
   Every delivery carries the sequence number it would have had as an
   event of its own, from the event queue's counter, so merging with the
   event queue by (time, seq) pops everything in the order one queue
   would.

   The ring is built at the first pop, and rebuilt from the ring and the
   overflow when the ring runs dry, when the next bucket is past the
   earliest overflowing index, or when they hold twice as many deliveries
   as at the last build.  A build sizes the ring from the pending
   deliveries: [per_bucket] of them a bucket, over twice their span, so
   the widths follow the delays of the run, whatever their scale.

   A bucket is a chain of [chunk]-entry chunks from a pool that only
   grows, so a delivery allocates nothing in steady state.  The lanes hold
   no pointers: an envelope is written once into the envelope table, by
   its first recipient, and its slot is freed when its last recipient
   pops. *)

open Bftsim_sim
open Bftsim_net

(* A build makes one bucket per [per_bucket] pending deliveries (DESIGN.md
   §3.15 has the measurements). *)
let per_bucket = 32

(* Entries in a chunk, the unit a bucket grows by. *)
let chunk_bits = 4

let chunk = 1 lsl chunk_bits

(* The pool is made of segments of [segment] entries, so it grows without
   copying; the first segment starts at one chunk and doubles. *)
let segment_bits = 10

let segment = 1 lsl segment_bits

(* Bucket indices are clamped here, beyond any ring, so a far arrival
   cannot overflow [int_of_float]. *)
let max_index = 1 lsl 60

let max_scaled = float_of_int max_index

(* Deliveries in flat lanes: arrival ms, sequence number, envelope slot,
   destination and message id. *)
type lanes = {
  at : float array;
  seq : int array;
  env : int array;
  dst : int array;
  id : int array;
}

let lanes cap =
  {
    at = Array.make cap 0.;
    seq = Array.make cap 0;
    env = Array.make cap 0;
    dst = Array.make cap 0;
    id = Array.make cap 0;
  }

(* [l] with room for [cap] entries, its first [n] kept. *)
let grown l n cap =
  let fresh = lanes cap in
  Array.blit l.at 0 fresh.at 0 n;
  Array.blit l.seq 0 fresh.seq 0 n;
  Array.blit l.env 0 fresh.env 0 n;
  Array.blit l.dst 0 fresh.dst 0 n;
  Array.blit l.id 0 fresh.id 0 n;
  fresh

let[@inline] copy a i b j =
  Array.unsafe_set b.at j (Array.unsafe_get a.at i);
  Array.unsafe_set b.seq j (Array.unsafe_get a.seq i);
  Array.unsafe_set b.env j (Array.unsafe_get a.env i);
  Array.unsafe_set b.dst j (Array.unsafe_get a.dst i);
  Array.unsafe_set b.id j (Array.unsafe_get a.id i)

(* Entry [i] of [a] pops before entry [j] of [b]. *)
let[@inline] before a i b j =
  let x = Array.unsafe_get a.at i and y = Array.unsafe_get b.at j in
  x < y || (x = y && Array.unsafe_get a.seq i < Array.unsafe_get b.seq j)

type 'e t = {
  queue : 'e Event_queue.t;
  arrival : 'e;
  mutable queued : int;  (** Undelivered entries, everywhere. *)
  stage : lanes;  (** One entry: the delivery being placed, or swapped. *)
  (* The pool: entry [e] is slot [e land (segment - 1)] of segment
     [e lsr segment_bits], and chunk [c] holds entries [c * chunk ..]. *)
  mutable pool : lanes array;
  mutable link : int array;  (** Per chunk: the next chunk of its chain. *)
  mutable free_chunk : int;  (** Head of the free chunks' chain, or -1. *)
  mutable chunks : int;  (** Chunks carved so far. *)
  (* The ring: buckets [0 .. nb - 1] and the overflow at [nb]; a bucket's
     chain runs from [head] to [tail] over [len] entries. *)
  mutable nb : int;  (** Ring size, a power of two; 0 before the first build. *)
  mutable head : int array;
  mutable tail : int array;
  mutable len : int array;
  mutable cur : int;  (** Index of the active bucket. *)
  mutable in_ring : int;
  mutable overflow_min : int;  (** Least bucket index in the overflow. *)
  mutable built : int;  (** Entries in the ring and overflow at the last build. *)
  inv_width : float array;
  mutable active : lanes;  (** Sorted; [a_pos] is the next to pop. *)
  mutable a_pos : int;
  mutable a_len : int;
  mutable late : lanes;  (** A binary min-heap by (arrival, seq). *)
  mutable l_len : int;
  (* The envelope table: [refs] counts a slot's undelivered recipients,
     and [spare] stacks the free slots below [env_top]. *)
  mutable env : Message.t array;
  mutable refs : int array;
  mutable spare : int array;
  mutable n_spare : int;
  mutable env_top : int;
  mutable env_last : int;  (** The slot [add] wrote last. *)
  mutable cur_env : int;  (** The envelope slot of the delivery popped last, *)
  mutable cur_dst : int;  (** its destination *)
  mutable cur_id : int;  (** and its message id. *)
}

(* An immediate stand-in for a vacant envelope slot, never read as a
   value.  Filling a major array with a young value would force a minor
   collection. *)
let vacant : unit -> 'a = fun () -> Obj.magic 0

let create queue ~arrival =
  {
    queue;
    arrival;
    queued = 0;
    stage = lanes 1;
    pool = [||];
    link = [||];
    free_chunk = -1;
    chunks = 0;
    nb = 0;
    head = [| -1 |];
    tail = [| -1 |];
    len = [| 0 |];
    cur = -1;
    in_ring = 0;
    overflow_min = max_index;
    built = 0;
    inv_width = [| 0. |];
    active = lanes 0;
    a_pos = 0;
    a_len = 0;
    late = lanes 0;
    l_len = 0;
    env = [||];
    refs = [||];
    spare = [||];
    n_spare = 0;
    env_top = 0;
    env_last = -1;
    cur_env = -1;
    cur_dst = -1;
    cur_id = -1;
  }

let extend lane blank cap =
  let fresh = Array.make cap blank in
  Array.blit lane 0 fresh 0 (Array.length lane);
  fresh

(* --- The pool --- *)

(* Carves fresh chunks onto the free chain: the first segment doubles up to
   [segment] entries, then whole segments are added. *)
let carve t =
  let entries = t.chunks * chunk in
  let cap =
    if entries < segment then begin
      let cap = Stdlib.max chunk (2 * entries) in
      t.pool <- [| (if entries = 0 then lanes cap else grown t.pool.(0) entries cap) |];
      cap
    end
    else begin
      let s = entries lsr segment_bits in
      if s = Array.length t.pool then t.pool <- extend t.pool (lanes 0) (2 * s);
      t.pool.(s) <- lanes segment;
      entries + segment
    end
  in
  let fresh = cap / chunk in
  if fresh > Array.length t.link then
    t.link <- extend t.link (-1) (Stdlib.max fresh (2 * Array.length t.link));
  for c = fresh - 1 downto t.chunks do
    Array.unsafe_set t.link c t.free_chunk;
    t.free_chunk <- c
  done;
  t.chunks <- fresh

let release_chunk t c =
  Array.unsafe_set t.link c t.free_chunk;
  t.free_chunk <- c

let[@inline] segment_of t e = Array.unsafe_get t.pool (e lsr segment_bits)

let[@inline] slot e = e land (segment - 1)

(* Appends the staged delivery to bucket [b]'s chain. *)
let append t b =
  let n = Array.unsafe_get t.len b in
  let off = n land (chunk - 1) in
  let c =
    if off <> 0 then Array.unsafe_get t.tail b
    else begin
      if t.free_chunk < 0 then carve t;
      let c = t.free_chunk in
      t.free_chunk <- Array.unsafe_get t.link c;
      if n = 0 then Array.unsafe_set t.head b c
      else Array.unsafe_set t.link (Array.unsafe_get t.tail b) c;
      Array.unsafe_set t.tail b c;
      c
    end
  in
  let e = (c lsl chunk_bits) lor off in
  copy t.stage 0 (segment_of t e) (slot e);
  Array.unsafe_set t.len b (n + 1)

(* --- The late heap --- *)

(* Inserts the staged delivery, sifting it up through a hole. *)
let late_push t =
  let n = t.l_len in
  if n = Array.length t.late.at then t.late <- grown t.late n (Stdlib.max 16 (2 * n));
  t.l_len <- n + 1;
  let l = t.late and hole = ref n in
  while !hole > 0 && before t.stage 0 l ((!hole - 1) lsr 1) do
    let parent = (!hole - 1) lsr 1 in
    copy l parent l !hole;
    hole := parent
  done;
  copy t.stage 0 l !hole

(* Removes the root: the last entry sinks from the root to its place. *)
let late_pop t =
  let n = t.l_len - 1 in
  t.l_len <- n;
  let l = t.late and hole = ref 0 and sinking = ref (n > 0) in
  while !sinking do
    let c = (2 * !hole) + 1 in
    let c = if c + 1 < n && before l (c + 1) l c then c + 1 else c in
    if c < n && before l c l n then begin
      copy l c l !hole;
      hole := c
    end
    else sinking := false
  done;
  if n > 0 then copy l n l !hole

(* --- Placing a delivery --- *)

let[@inline] index t at =
  let x = at *. Array.unsafe_get t.inv_width 0 in
  if x < max_scaled then int_of_float x else max_index

(* Files the staged delivery: into the late heap at or before the active
   bucket, into the ring within its horizon, else into the overflow. *)
let place t =
  let k = index t (Array.unsafe_get t.stage.at 0) in
  if k <= t.cur then late_push t
  else if k - t.cur < t.nb then begin
    append t (k land (t.nb - 1));
    t.in_ring <- t.in_ring + 1
  end
  else begin
    append t t.nb;
    if k < t.overflow_min then t.overflow_min <- k
  end

(* The slot of [msg] in the envelope table: the slot [add] wrote last when
   it holds [msg] (a broadcast's recipients are added in a row), else a
   fresh one. *)
let env_slot t msg =
  let s = t.env_last in
  if s >= 0 && Array.unsafe_get t.env s == msg then begin
    Array.unsafe_set t.refs s (Array.unsafe_get t.refs s + 1);
    s
  end
  else begin
    let s =
      if t.n_spare > 0 then begin
        t.n_spare <- t.n_spare - 1;
        Array.unsafe_get t.spare t.n_spare
      end
      else begin
        let s = t.env_top in
        if s = Array.length t.env then begin
          let cap = Stdlib.max 16 (2 * s) in
          t.env <- extend t.env (vacant ()) cap;
          t.refs <- extend t.refs 0 cap;
          t.spare <- extend t.spare 0 cap
        end;
        t.env_top <- s + 1;
        s
      end
    in
    Array.unsafe_set t.env s msg;
    Array.unsafe_set t.refs s 1;
    t.env_last <- s;
    s
  end

let add t (msg : Message.t) ~dst ~id ~delay_ms =
  let at = Time.to_ms msg.Message.sent_at +. delay_ms in
  let s = t.stage in
  Array.unsafe_set s.at 0 (if at < 0. then 0. else at);
  Array.unsafe_set s.seq 0 (Event_queue.reserve_seq t.queue);
  Array.unsafe_set s.env 0 (env_slot t msg);
  Array.unsafe_set s.dst 0 dst;
  Array.unsafe_set s.id 0 id;
  place t;
  t.queued <- t.queued + 1

(* --- Building the ring --- *)

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

(* Re-buckets the ring and the overflow into a ring sized from them:
   [per_bucket] entries a bucket over twice their span, the earliest in
   the first bucket. *)
let rebuild t =
  let nb = t.nb and head = t.head and len = t.len in
  let lo = ref infinity and hi = ref neg_infinity and count = ref 0 in
  for b = 0 to nb do
    let n = Array.unsafe_get len b in
    count := !count + n;
    let c = ref (Array.unsafe_get head b) in
    for i = 0 to n - 1 do
      let off = i land (chunk - 1) in
      if off = 0 && i > 0 then c := Array.unsafe_get t.link !c;
      let e = (!c lsl chunk_bits) lor off in
      let at = Array.unsafe_get (segment_of t e).at (slot e) in
      if at < !lo then lo := at;
      if at > !hi then hi := at
    done
  done;
  let size = pow2_at_least (!count / per_bucket) 4 in
  let span = !hi -. !lo in
  (* Without a span any width holds the entries in one bucket; a tiny one
     sends the next arrivals to the overflow, and so to the next build. *)
  let width =
    if span > 0. then 2. *. span /. float_of_int size else Float.max (!hi *. 1e-9) 1e-9
  in
  Array.unsafe_set t.inv_width 0 (1. /. width);
  t.nb <- size;
  t.head <- Array.make (size + 1) (-1);
  t.tail <- Array.make (size + 1) (-1);
  t.len <- Array.make (size + 1) 0;
  t.cur <- index t !lo - 1;
  t.in_ring <- 0;
  t.overflow_min <- max_index;
  t.built <- !count;
  for b = 0 to nb do
    let c = ref (Array.unsafe_get head b) in
    for i = 0 to Array.unsafe_get len b - 1 do
      let off = i land (chunk - 1) in
      if off = 0 && i > 0 then begin
        let next = Array.unsafe_get t.link !c in
        release_chunk t !c;
        c := next
      end;
      let e = (!c lsl chunk_bits) lor off in
      copy (segment_of t e) (slot e) t.stage 0;
      place t
    done;
    if Array.unsafe_get len b > 0 then release_chunk t !c
  done

(* --- The active bucket --- *)

let swap t i j =
  let a = t.active in
  copy a i t.stage 0;
  copy a j a i;
  copy t.stage 0 a j

(* Sorts [lo, hi] of the active bucket by (arrival, seq): quicksort on a
   median of three, with insertion sort below 16 entries.  No scratch
   lanes and no exceptions, so it allocates nothing (Stdlib's [Array.sort]
   raises internally). *)
let rec sort t lo hi =
  let a = t.active in
  if hi - lo < 16 then
    for i = lo + 1 to hi do
      let j = ref i in
      while !j > lo && before a !j a (!j - 1) do
        swap t !j (!j - 1);
        decr j
      done
    done
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if before a mid a lo then swap t mid lo;
    if before a hi a lo then swap t hi lo;
    if before a hi a mid then swap t hi mid;
    (* The median, at [p], partitions [p + 1, hi - 1]; [lo] and [hi]
       bound the scans.  Keys are unique: sequence numbers are. *)
    let p = lo + 1 in
    swap t mid p;
    let i = ref p and j = ref hi and scanning = ref true in
    while !scanning do
      incr i;
      while before a !i a p do
        incr i
      done;
      decr j;
      while before a p a !j do
        decr j
      done;
      if !i < !j then swap t !i !j else scanning := false
    done;
    swap t p !j;
    (* Recurse into the smaller part; the larger is a tail call. *)
    if !j - lo < hi - !j then begin
      sort t lo (!j - 1);
      sort t (!j + 1) hi
    end
    else begin
      sort t (!j + 1) hi;
      sort t lo (!j - 1)
    end
  end

(* Makes bucket [b] the active bucket: copies its chain out, freeing the
   chunks, and sorts it. *)
let activate t b =
  let n = Array.unsafe_get t.len b in
  if n > Array.length t.active.at then t.active <- lanes (pow2_at_least n 64);
  let c = ref (Array.unsafe_get t.head b) in
  for i = 0 to n - 1 do
    let off = i land (chunk - 1) in
    if off = 0 && i > 0 then begin
      let next = Array.unsafe_get t.link !c in
      release_chunk t !c;
      c := next
    end;
    let e = (!c lsl chunk_bits) lor off in
    copy (segment_of t e) (slot e) t.active i
  done;
  release_chunk t !c;
  Array.unsafe_set t.len b 0;
  t.in_ring <- t.in_ring - n;
  sort t 0 (n - 1);
  t.a_pos <- 0;
  t.a_len <- n

(* With the active bucket and the late heap empty, activates the next
   bucket, after a build when one is due. *)
let rec next_bucket t =
  if t.nb = 0 || t.in_ring = 0 || t.in_ring + Array.unsafe_get t.len t.nb > 2 * t.built then
    rebuild t;
  let mask = t.nb - 1 in
  let k = ref (t.cur + 1) in
  while Array.unsafe_get t.len (!k land mask) = 0 && !k < t.overflow_min do
    incr k
  done;
  if !k >= t.overflow_min then begin
    rebuild t;
    next_bucket t
  end
  else begin
    t.cur <- !k;
    activate t (!k land mask)
  end

(* --- Popping --- *)

(* Frees the envelope slot of the delivery popped last once its last
   recipient has it. *)
let release_env t =
  let s = t.cur_env in
  if s >= 0 && Array.unsafe_get t.refs s = 0 then begin
    Array.unsafe_set t.env s (vacant ());
    Array.unsafe_set t.spare t.n_spare s;
    t.n_spare <- t.n_spare + 1;
    t.cur_env <- -1
  end

(* Takes entry [i] of [l] into the [cur_*] fields and the clock. *)
let take t l i =
  if not (Event_queue.advance t.queue l.at i) then
    invalid_arg "Arrival_runs: a delivery is scheduled in the past";
  let env = Array.unsafe_get l.env i in
  Array.unsafe_set t.refs env (Array.unsafe_get t.refs env - 1);
  t.cur_env <- env;
  t.cur_dst <- Array.unsafe_get l.dst i;
  t.cur_id <- Array.unsafe_get l.id i;
  t.queued <- t.queued - 1

let is_empty t = t.queued = 0 && Event_queue.is_empty t.queue

let next_exn t =
  release_env t;
  if t.a_pos = t.a_len && t.l_len = 0 && t.queued > 0 then next_bucket t;
  let i = t.a_pos in
  let late = t.l_len > 0 && (i = t.a_len || before t.late 0 t.active i) in
  if (not late) && i = t.a_len then Event_queue.next_exn t.queue
  else begin
    let l = if late then t.late else t.active and j = if late then 0 else i in
    if Event_queue.precedes t.queue l.at j ~seq:(Array.unsafe_get l.seq j) then
      Event_queue.next_exn t.queue
    else begin
      take t l j;
      if late then late_pop t else t.a_pos <- i + 1;
      t.arrival
    end
  end

let current t = Array.get t.env t.cur_env

let current_dst t = t.cur_dst

let current_id t = t.cur_id

let pending t = Event_queue.pending t.queue + t.queued
