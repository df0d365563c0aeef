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

   A delivery is one record of three floats, 24 bytes: its arrival ms,
   its sequence number and its key, [env_slot * 2^26 + dst].  A bucket is
   a chain of [chunk]-record chunks from a pool that only grows, so a
   delivery allocates nothing in steady state.  The records hold no
   pointers: an envelope is written once into the envelope table, by its
   first recipient, and its slot is freed when its last recipient pops. *)

open Bftsim_sim
open Bftsim_net

(* A build makes one bucket per [per_bucket] pending deliveries (DESIGN.md
   §3.15 has the measurements). *)
let per_bucket = 32

(* Records in a chunk, the unit a bucket grows by. *)
let chunk_bits = 4

let chunk = 1 lsl chunk_bits

(* The pool is made of segments of [segment] records, so it grows without
   copying; the first segment starts at one chunk and doubles. *)
let segment_bits = 10

let segment = 1 lsl segment_bits

(* Bucket indices are clamped here, so a far arrival, or any arrival
   when the width underflows, cannot overflow [int_of_float]. *)
let max_index = 1 lsl 60

let max_scaled = float_of_int max_index

(* [overflow_min] with nothing in the overflow: past every index, the
   clamped one included, or a ring at [max_index] would never be
   reached. *)
let no_overflow = max_int

(* --- Records ---

   A record is [fields] consecutive floats of a float array: the arrival
   ms at offset 0, the sequence number at 1 and the key at 2.  A double
   holds every integer below 2^53 exactly: the sequence number stays below
   2^53, and the key below 2^52, as envelope slots and destinations both
   stay below 2^26.  A destination below 0 is stored as the key
   [lnot (env_slot * 2^26)], a negative key, and pops as -1. *)

let fields = 3

let dst_bits = 26

let max_dst = 1 lsl dst_bits

let max_seq = 1 lsl 53

let[@inline] key ~env ~dst =
  if dst >= 0 then (env lsl dst_bits) lor dst else lnot (env lsl dst_bits)

(* Room for [cap] records, uninitialised: a record is read only once
   written. *)
let records cap = Array.create_float (fields * cap)

(* [a] with room for [cap] records, its first [n] kept. *)
let grown (a : float array) n cap =
  let fresh = records cap in
  Array.blit a 0 fresh 0 (fields * n);
  fresh

(* Copies the record at offset [i] of [a] to offset [j] of [b]. *)
let[@inline] copy (a : float array) i (b : float array) j =
  Array.unsafe_set b j (Array.unsafe_get a i);
  Array.unsafe_set b (j + 1) (Array.unsafe_get a (i + 1));
  Array.unsafe_set b (j + 2) (Array.unsafe_get a (i + 2))

(* The record at offset [i] of [a] pops before the one at offset [j] of
   [b]. *)
let[@inline] before (a : float array) i (b : float array) j =
  let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
  x < y || (x = y && Array.unsafe_get a (i + 1) < Array.unsafe_get b (j + 1))

type 'e t = {
  queue : 'e Event_queue.t;
  arrival : 'e;
  mutable queued : int;  (** Undelivered records, everywhere. *)
  stage : float array;  (** One record: the delivery being placed. *)
  (* The pool: record [e] is slot [e land (segment - 1)] of segment
     [e lsr segment_bits], and chunk [c] holds records [c * chunk ..]. *)
  mutable pool : float array array;
  mutable link : int array;  (** Per chunk: the next chunk of its chain. *)
  mutable free_chunk : int;  (** Head of the free chunks' chain, or -1. *)
  mutable chunks : int;  (** Chunks carved so far. *)
  (* The ring: buckets [0 .. nb - 1] and the overflow at [nb]; a bucket's
     chain runs from [head] to [tail] over [len] records. *)
  mutable nb : int;  (** Ring size, a power of two; 0 before the first build. *)
  mutable head : int array;
  mutable tail : int array;
  mutable len : int array;
  mutable cur : int;  (** Index of the active bucket. *)
  mutable in_ring : int;
  mutable overflow_min : int;  (** Least bucket index in the overflow. *)
  mutable built : int;  (** Records in the ring and overflow at the last build. *)
  inv_width : float array;
  mutable active : float array;  (** Sorted; record [a_pos] is the next to pop. *)
  mutable a_pos : int;
  mutable a_len : int;
  mutable starts : int array;  (** Sorting the active bucket: per slice, its next record. *)
  mutable late : float array;  (** A binary min-heap by (arrival, seq). *)
  mutable l_len : int;
  (* The envelope table: [refs] counts a slot's undelivered recipients,
     and [spare] stacks the free slots below [env_top]. *)
  mutable env : Message.t array;
  mutable refs : int array;
  mutable spare : int array;
  mutable n_spare : int;
  mutable env_top : int;
  mutable env_last : int;  (** The slot [add] wrote last. *)
  mutable cur_env : int;  (** The envelope slot of the delivery popped last *)
  mutable cur_dst : int;  (** and its destination. *)
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
    stage = records 1;
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
    overflow_min = no_overflow;
    built = 0;
    inv_width = [| 0. |];
    active = [||];
    a_pos = 0;
    a_len = 0;
    starts = [||];
    late = [||];
    l_len = 0;
    env = [||];
    refs = [||];
    spare = [||];
    n_spare = 0;
    env_top = 0;
    env_last = -1;
    cur_env = -1;
    cur_dst = -1;
  }

let extend lane blank cap =
  let fresh = Array.make cap blank in
  Array.blit lane 0 fresh 0 (Array.length lane);
  fresh

(* --- The pool --- *)

(* Carves fresh chunks onto the free chain: the first segment doubles up to
   [segment] records, then whole segments are added. *)
let carve t =
  let entries = t.chunks * chunk in
  let cap =
    if entries < segment then begin
      let cap = Stdlib.max chunk (2 * entries) in
      t.pool <- [| (if entries = 0 then records cap else grown t.pool.(0) entries cap) |];
      cap
    end
    else begin
      let s = entries lsr segment_bits in
      if s = Array.length t.pool then t.pool <- extend t.pool [||] (2 * s);
      t.pool.(s) <- records segment;
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

(* The offset of record [e] in its segment. *)
let[@inline] offset e = fields * (e land (segment - 1))

(* Appends the staged record to bucket [b]'s chain. *)
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
  copy t.stage 0 (segment_of t e) (offset e);
  Array.unsafe_set t.len b (n + 1)

(* --- The late heap --- *)

(* Inserts the staged record, sifting it up through a hole. *)
let late_push t =
  let n = t.l_len in
  if fields * n = Array.length t.late then t.late <- grown t.late n (Stdlib.max 16 (2 * n));
  t.l_len <- n + 1;
  let l = t.late and hole = ref n in
  while !hole > 0 && before t.stage 0 l (fields * ((!hole - 1) lsr 1)) do
    let parent = (!hole - 1) lsr 1 in
    copy l (fields * parent) l (fields * !hole);
    hole := parent
  done;
  copy t.stage 0 l (fields * !hole)

(* Removes the root: the last record sinks from the root to its place. *)
let late_pop t =
  let n = t.l_len - 1 in
  t.l_len <- n;
  let l = t.late and last = fields * n and hole = ref 0 and sinking = ref (n > 0) in
  while !sinking do
    let c = (2 * !hole) + 1 in
    let c = if c + 1 < n && before l (fields * (c + 1)) l (fields * c) then c + 1 else c in
    if c < n && before l (fields * c) l last then begin
      copy l (fields * c) l (fields * !hole);
      hole := c
    end
    else sinking := false
  done;
  if n > 0 then copy l last l (fields * !hole)

(* --- Placing a delivery --- *)

let[@inline] index t at =
  let x = at *. Array.unsafe_get t.inv_width 0 in
  if x < max_scaled then int_of_float x else max_index

(* Files the staged record: into the late heap at or before the active
   bucket, into the ring within its horizon, else into the overflow. *)
let place t =
  let k = index t (Array.unsafe_get t.stage 0) in
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
          if s = max_dst then invalid_arg "Arrival_runs.add: 2^26 envelopes in flight";
          let cap = Stdlib.min max_dst (Stdlib.max 16 (2 * s)) in
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

let add t (msg : Message.t) ~dst delay =
  if dst >= max_dst then invalid_arg "Arrival_runs.add: destination at or past 2^26";
  let at = Time.to_ms msg.Message.sent_at +. delay.(0) in
  let seq = Event_queue.reserve_seq t.queue in
  if seq >= max_seq then invalid_arg "Arrival_runs.add: sequence number at or past 2^53";
  let s = t.stage in
  Array.unsafe_set s 0 (if at < 0. then 0. else at);
  Array.unsafe_set s 1 (float_of_int seq);
  Array.unsafe_set s 2 (float_of_int (key ~env:(env_slot t msg) ~dst));
  place t;
  t.queued <- t.queued + 1

(* --- Building the ring --- *)

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

(* Re-buckets the ring and the overflow into a ring sized from them:
   [per_bucket] records a bucket over twice their span, the earliest in
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
      let at = Array.unsafe_get (segment_of t e) (offset e) in
      if at < !lo then lo := at;
      if at > !hi then hi := at
    done
  done;
  let size = pow2_at_least (!count / per_bucket) 4 in
  let span = !hi -. !lo in
  (* Without a span any width holds the records in one bucket; a tiny one
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
  t.overflow_min <- no_overflow;
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
      copy (segment_of t e) (offset e) t.stage 0;
      place t
    done;
    if Array.unsafe_get len b > 0 then release_chunk t !c
  done

(* --- The active bucket ---

   A bucket is sorted by (arrival, seq) when the clock reaches it: its [m]
   records are distributed into [m] slices of equal width by their
   position inside the bucket, which orders them across slices, then one
   insertion pass orders each slice. *)

(* The slice of arrival [at] among the [m] slices of bucket [cur].  Its
   position is the product that gave its index, less the index, so it
   lies in [0, 1), except in the bucket at [max_index], where an index was
   clamped and a position can be anything, hence the clamp. *)
let[@inline] slice t at ~m =
  let x = at *. Array.unsafe_get t.inv_width 0 -. float_of_int t.cur in
  let s = int_of_float (x *. float_of_int m) in
  if s < 0 then 0 else if s >= m then m - 1 else s

(* Orders the [n] active records by (arrival, seq), each moved past the
   records that pop after it. *)
let insertion_pass a n =
  for i = 1 to n - 1 do
    let o = fields * i in
    if before a o a (o - fields) then begin
      let at = Array.unsafe_get a o
      and seq = Array.unsafe_get a (o + 1)
      and key = Array.unsafe_get a (o + 2) in
      let j = ref (o - fields) in
      while
        !j >= 0
        &&
        let y = Array.unsafe_get a !j in
        at < y || (at = y && seq < Array.unsafe_get a (!j + 1))
      do
        copy a !j a (!j + fields);
        j := !j - fields
      done;
      let h = !j + fields in
      Array.unsafe_set a h at;
      Array.unsafe_set a (h + 1) seq;
      Array.unsafe_set a (h + 2) key
    end
  done

(* Makes bucket [b] the active bucket: counts its chain's records by
   slice, moves them out slice by slice (in chain order within a slice),
   freeing the chunks, and sorts them. *)
let activate t b =
  let n = Array.unsafe_get t.len b in
  if fields * n > Array.length t.active then begin
    let cap = pow2_at_least n 64 in
    t.active <- records cap;
    t.starts <- Array.make (cap + 1) 0
  end;
  let starts = t.starts in
  Array.fill starts 0 (n + 1) 0;
  let c = ref (Array.unsafe_get t.head b) in
  for i = 0 to n - 1 do
    let off = i land (chunk - 1) in
    if off = 0 && i > 0 then c := Array.unsafe_get t.link !c;
    let e = (!c lsl chunk_bits) lor off in
    let s = slice t (Array.unsafe_get (segment_of t e) (offset e)) ~m:n in
    Array.unsafe_set starts (s + 1) (Array.unsafe_get starts (s + 1) + 1)
  done;
  (* [starts.(s)] becomes the first record of slice [s]. *)
  for s = 1 to n - 1 do
    Array.unsafe_set starts s (Array.unsafe_get starts s + Array.unsafe_get starts (s - 1))
  done;
  c := Array.unsafe_get t.head b;
  for i = 0 to n - 1 do
    let off = i land (chunk - 1) in
    if off = 0 && i > 0 then begin
      let next = Array.unsafe_get t.link !c in
      release_chunk t !c;
      c := next
    end;
    let e = (!c lsl chunk_bits) lor off in
    let seg = segment_of t e and o = offset e in
    let s = slice t (Array.unsafe_get seg o) ~m:n in
    let p = Array.unsafe_get starts s in
    Array.unsafe_set starts s (p + 1);
    copy seg o t.active (fields * p)
  done;
  release_chunk t !c;
  Array.unsafe_set t.len b 0;
  t.in_ring <- t.in_ring - n;
  insertion_pass t.active n;
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

(* Takes the record at offset [o] of [l] into [cur_env], [cur_dst] and the
   clock. *)
let take t l o =
  if not (Event_queue.advance t.queue l o) then
    invalid_arg "Arrival_runs: a delivery is scheduled in the past";
  let k = int_of_float (Array.unsafe_get l (o + 2)) in
  let env = (if k >= 0 then k else lnot k) lsr dst_bits in
  Array.unsafe_set t.refs env (Array.unsafe_get t.refs env - 1);
  t.cur_env <- env;
  t.cur_dst <- (if k >= 0 then k land (max_dst - 1) else -1);
  t.queued <- t.queued - 1

let is_empty t = t.queued = 0 && Event_queue.is_empty t.queue

let next_exn t =
  release_env t;
  if t.a_pos = t.a_len && t.l_len = 0 && t.queued > 0 then next_bucket t;
  let i = t.a_pos in
  let late = t.l_len > 0 && (i = t.a_len || before t.late 0 t.active (fields * i)) in
  if (not late) && i = t.a_len then Event_queue.next_exn t.queue
  else begin
    let l = if late then t.late else t.active and o = if late then 0 else fields * i in
    if
      Event_queue.precedes t.queue l o ~seq:(int_of_float (Array.unsafe_get l (o + 1)))
    then Event_queue.next_exn t.queue
    else begin
      take t l o;
      if late then late_pop t else t.a_pos <- i + 1;
      t.arrival
    end
  end

let current t = Array.get t.env t.cur_env

let current_dst t = t.cur_dst

let pending t = Event_queue.pending t.queue + t.queued
