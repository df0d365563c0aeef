(* Arrival runs (DESIGN.md §3.15).

   A run is the sorted list of the deliveries one handled event scheduled,
   kept in flat lanes.  Sealed runs sit in a heap of their own, keyed by
   their first undelivered entry, and taking that entry re-keys the run by
   the next one in place; the heap is a k-way merge of sorted runs.  Every
   entry carries the sequence number it would have had as an event of its
   own, from the event queue's counter, so merging the runs with the event
   queue by (time, seq) pops everything in the order one queue would.

   Runs are pooled: a spent run goes back to a free stack with its lanes,
   so a simulation in steady state allocates no run storage. *)

open Bftsim_sim
open Bftsim_net

(* Sealing sorts [at] and [ord] together; the other lanes stay in the
   order of [add], so the sort moves no pointers.  A delivery is its
   envelope, shared by every recipient of a broadcast, plus a destination
   and a message id in unboxed lanes: no record per recipient. *)
type run = {
  mutable at : float array;  (** Arrival ms of the [i]-th entry in delivery order. *)
  mutable ord : int array;  (** Its index in order of [add]. *)
  mutable seq : int array;  (** Sequence numbers, in order of [add]. *)
  mutable msgs : Message.t array;  (** Envelopes, in order of [add]. *)
  mutable dst : int array;  (** Destinations, in order of [add]. *)
  mutable id : int array;  (** Message ids, in order of [add]. *)
  mutable len : int;
  mutable next : int;  (** First undelivered entry. *)
}

type 'e t = {
  queue : 'e Event_queue.t;
  arrival : 'e;
  width : int;  (** Lane length of a fresh run. *)
  runs : run Pqueue.t;
  mutable batch : run;  (** Open run: the deliveries of the event being handled. *)
  mutable free : run array;
  mutable n_free : int;
  mutable queued : int;  (** Undelivered entries, the open run's included. *)
  mutable current : Message.t;  (** The envelope of the delivery popped last, *)
  mutable current_dst : int;  (** its destination *)
  mutable current_id : int;  (** and its message id. *)
}

(* An immediate stand-in for a vacant slot; like [Pqueue]'s filler, it is
   never read as a value. *)
let vacant : unit -> 'a = fun () -> Obj.magic 0

let make_run () =
  { at = [||]; ord = [||]; seq = [||]; msgs = [||]; dst = [||]; id = [||]; len = 0; next = 0 }

let create queue ~arrival ~width =
  {
    queue;
    arrival;
    (* From 129 replicas on, lanes are rounded up to 257 entries, the
       shortest the runtime allocates straight in the major heap: a pooled
       run lives for the whole simulation, so a young lane would only be
       copied out at its first promotion, and the rounding at most doubles
       it.  Smaller lanes stay young: rounding them up would cost more
       memory than the copy. *)
    width = (if width > 128 then Stdlib.max width 257 else Stdlib.max 1 width);
    runs = Pqueue.create ();
    batch = make_run ();
    free = Array.make 16 (vacant ());
    n_free = 0;
    queued = 0;
    current = vacant ();
    current_dst = -1;
    current_id = -1;
  }

(* A fresh run's lanes fit one broadcast, so most runs never grow.
   Filling a major array (longer than 256 words) with a young value would
   force a minor collection, hence the immediate [vacant]. *)
let grow t r =
  let cap = if r.len = 0 then t.width else 2 * r.len in
  let lane blank old =
    let fresh = Array.make cap blank in
    Array.blit old 0 fresh 0 r.len;
    fresh
  in
  r.at <- lane 0. r.at;
  r.ord <- lane 0 r.ord;
  r.seq <- lane 0 r.seq;
  r.msgs <- lane (vacant ()) r.msgs;
  r.dst <- lane 0 r.dst;
  r.id <- lane 0 r.id

let add t (msg : Message.t) ~dst ~id ~delay_ms =
  let r = t.batch in
  let i = r.len in
  if i = Array.length r.at then grow t r;
  let at = Time.to_ms msg.Message.sent_at +. delay_ms in
  Array.unsafe_set r.at i (if at < 0. then 0. else at);
  Array.unsafe_set r.ord i i;
  Array.unsafe_set r.seq i (Event_queue.reserve_seq t.queue);
  Array.unsafe_set r.msgs i msg;
  Array.unsafe_set r.dst i dst;
  Array.unsafe_set r.id i id;
  r.len <- i + 1;
  t.queued <- t.queued + 1

(* In-place heapsort by (arrival, seq): no scratch lanes and no exceptions,
   so sorting allocates nothing (Stdlib's [Array.sort] raises internally).
   Sequence numbers rise in order of [add], so [ord] breaks ties as [seq]
   would. *)
let[@inline] before r i j =
  let a = Array.unsafe_get r.at i and b = Array.unsafe_get r.at j in
  a < b || (a = b && Array.unsafe_get r.ord i < Array.unsafe_get r.ord j)

let swap r i j =
  let a = Array.unsafe_get r.at i and k = Array.unsafe_get r.ord i in
  Array.unsafe_set r.at i (Array.unsafe_get r.at j);
  Array.unsafe_set r.ord i (Array.unsafe_get r.ord j);
  Array.unsafe_set r.at j a;
  Array.unsafe_set r.ord j k

(* Sifts entry [i] down the max-heap on [0, n). *)
let rec sift r i n =
  let c = (2 * i) + 1 in
  if c < n then begin
    let c = if c + 1 < n && before r c (c + 1) then c + 1 else c in
    if before r i c then begin
      swap r i c;
      sift r c n
    end
  end

let sort r =
  let n = r.len in
  for i = (n / 2) - 1 downto 0 do
    sift r i n
  done;
  for last = n - 1 downto 1 do
    swap r 0 last;
    sift r 0 last
  done

let[@inline] seq_at r i = Array.unsafe_get r.seq (Array.unsafe_get r.ord i)

let seal t =
  let r = t.batch in
  if r.len > 0 then begin
    sort r;
    if Array.unsafe_get r.at 0 < Event_queue.now_ms t.queue then
      invalid_arg "Arrival_runs: a delivery is scheduled in the past";
    Pqueue.push_keyed t.runs r.at 0 ~seq:(seq_at r 0) r;
    t.batch <-
      (if t.n_free = 0 then make_run ()
       else begin
         t.n_free <- t.n_free - 1;
         Array.unsafe_get t.free t.n_free
       end)
  end

let release t r =
  r.len <- 0;
  r.next <- 0;
  if t.n_free = Array.length t.free then begin
    let free = Array.make (2 * t.n_free) (vacant ()) in
    Array.blit t.free 0 free 0 t.n_free;
    t.free <- free
  end;
  Array.unsafe_set t.free t.n_free r;
  t.n_free <- t.n_free + 1

(* Takes the head of the first run into the [current] fields, then re-keys
   the run by its next entry, or drops it from the heap once spent. *)
let take t =
  let r = Pqueue.min_exn t.runs in
  let i = r.next in
  Event_queue.advance t.queue r.at i;
  let k = Array.unsafe_get r.ord i in
  t.current <- Array.unsafe_get r.msgs k;
  t.current_dst <- Array.unsafe_get r.dst k;
  t.current_id <- Array.unsafe_get r.id k;
  Array.unsafe_set r.msgs k (vacant ());
  t.queued <- t.queued - 1;
  let i = i + 1 in
  if i < r.len then begin
    r.next <- i;
    Pqueue.rekey_min t.runs r.at i ~seq:(seq_at r i)
  end
  else begin
    ignore (Pqueue.pop_exn t.runs : run);
    release t r
  end

let is_empty t = t.queued = 0 && Event_queue.is_empty t.queue

let next_exn t =
  seal t;
  if
    Pqueue.is_empty t.runs
    || ((not (Event_queue.is_empty t.queue)) && Event_queue.next_before t.queue t.runs)
  then Event_queue.next_exn t.queue
  else begin
    take t;
    t.arrival
  end

let current t = t.current

let current_dst t = t.current_dst

let current_id t = t.current_id

let pending t = Event_queue.pending t.queue + t.queued
