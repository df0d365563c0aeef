(* The clock lives in a one-element float array: float-array slots are
   unboxed, so advancing the clock on every popped event stores a word
   instead of allocating a fresh box (a mutable float field in this mixed
   record would box on every write). *)
type 'a t = {
  queue : 'a Pqueue.t;
  clock : float array;
  (* Boxed mirror of [clock.(0)] for the [now] callers (protocol handlers,
     senders), who share one box.  It is refreshed at the first [now] after
     the clock advances, not at the advance: most events, such as a vote
     whose handler sends nothing, never read it. *)
  mutable clock_t : Time.t;
  mutable stale : bool;
  mutable popped : int;
}

let create () =
  { queue = Pqueue.create (); clock = [| 0. |]; clock_t = Time.zero; stale = false; popped = 0 }

let now_ms q = Array.unsafe_get q.clock 0

let now q =
  if q.stale then begin
    q.clock_t <- Time.unsafe_of_ms (now_ms q);
    q.stale <- false
  end;
  q.clock_t

let past q ms = now_ms q > ms

let overdue q ~since ~limit = now_ms q -. since > limit

let schedule q ~at ev =
  if Time.to_ms at < now_ms q then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: %s is in the past (now %s)" (Time.to_string at)
         (Time.to_string (now q)));
  Pqueue.push q.queue ~priority:(Time.to_ms at) ev

let reserve_seq q = Pqueue.reserve_seq q.queue

let precedes q lane i ~seq = Pqueue.min_precedes q.queue lane i ~seq

let advance q lane i =
  let at = Array.get lane i in
  at >= now_ms q
  && begin
       if at > now_ms q then begin
         Array.unsafe_set q.clock 0 at;
         q.stale <- true
       end;
       q.popped <- q.popped + 1;
       true
     end

(* The deadline is summed from the unboxed clock, so the only float boxed
   is the priority handed to the heap. *)
let[@inline] push_after q delay_ms ev =
  Pqueue.push q.queue ~priority:(now_ms q +. (if delay_ms < 0. then 0. else delay_ms)) ev

let schedule_after q ~delay_ms ev = push_after q delay_ms ev

let schedule_in q delay ev = push_after q (Array.unsafe_get delay 0) ev

let is_empty q = Pqueue.is_empty q.queue

(* [Pqueue.min_priority] returns the time boxed, as a float returned from
   another module is, so that box becomes the mirror at once. *)
let next_exn q =
  let at = Pqueue.min_priority q.queue in
  let ev = Pqueue.pop_exn q.queue in
  if at > now_ms q then begin
    Array.unsafe_set q.clock 0 at;
    q.clock_t <- Time.unsafe_of_ms at;
    q.stale <- false
  end;
  q.popped <- q.popped + 1;
  ev

let next q =
  if is_empty q then None
  else begin
    let ev = next_exn q in
    Some (now q, ev)
  end

let peek_time q =
  match Pqueue.peek q.queue with
  | None -> None
  | Some (priority, _) -> Some (Time.of_ms priority)

let pending q = Pqueue.length q.queue

let popped q = q.popped
