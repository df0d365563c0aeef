(* Bounded FIFO mempool (DESIGN.md §3.16).

   One logical pool of pending client requests on the proposer path.  The
   bound models admission control: when the pool is full, new requests are
   rejected (counted, not queued), which is what keeps an overdriven
   open-loop run from accumulating unbounded state past the saturation
   knee.

   Re-queue (PR 9): requests whose batch went stale on a view change are
   returned to the *front* of the pool so they keep their original FIFO
   position relative to younger requests.  The front stash is a plain list
   (LIFO push, so requeueing a batch's list restores its internal order)
   drained before the queue.  [length] is kept as a count, as the driver
   reads it on every arrival and a re-queued stash can be long. *)

type request = { id : int; arrived_ms : float; key : int; client : int }

type t = {
  capacity : int;
  q : request Queue.t;
  mutable front : request list;  (* re-queued requests, served before [q] *)
  mutable length : int;  (* [List.length front + Queue.length q] *)
  mutable dropped : int;
  mutable requeued : int;
  mutable peak : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Mempool.create: capacity must be > 0";
  { capacity; q = Queue.create (); front = []; length = 0; dropped = 0; requeued = 0; peak = 0 }

let length t = t.length

let grow t k =
  t.length <- t.length + k;
  if t.length > t.peak then t.peak <- t.length

let full t = t.length >= t.capacity

let reject t = t.dropped <- t.dropped + 1

let add t r =
  if full t then begin
    reject t;
    false
  end
  else begin
    Queue.add r t.q;
    grow t 1;
    true
  end

(* Stale-batch return path.  Bypasses the capacity bound: these requests
   were already admitted once, and bouncing them now would double-count the
   admission decision.  [rs] must be in FIFO order; pushing in reverse keeps
   that order at the front of the pool. *)
let requeue t rs =
  let k = List.length rs in
  t.front <- List.rev_append (List.rev rs) t.front;
  t.requeued <- t.requeued + k;
  grow t k

let take t ~max =
  if max < 0 then invalid_arg "Mempool.take: max must be >= 0";
  let rec from_front acc k = function
    | r :: rest when k > 0 -> from_front (r :: acc) (k - 1) rest
    | rest ->
      t.front <- rest;
      let rec from_q acc k =
        if k = 0 || Queue.is_empty t.q then List.rev acc else from_q (Queue.pop t.q :: acc) (k - 1)
      in
      from_q acc k
  in
  let taken = from_front [] max t.front in
  t.length <- t.length - List.length taken;
  taken

let to_list t = t.front @ List.of_seq (Queue.to_seq t.q)

let dropped t = t.dropped
let requeued t = t.requeued
let peak t = t.peak
