(* The clock lives in a one-element float array: float-array slots are
   unboxed, so advancing the clock on every popped event stores a word
   instead of allocating a fresh box (a mutable float field in this mixed
   record would box on every write). *)
type 'a t = {
  queue : 'a Pqueue.t;
  clock : float array;
  (* Boxed mirror of [clock.(0)], refreshed once per clock advance so the
     many [now] callers (protocol handlers, senders) share one box instead
     of boxing per call. *)
  mutable clock_t : Time.t;
  mutable popped : int;
}

let create () = { queue = Pqueue.create (); clock = [| 0. |]; clock_t = Time.zero; popped = 0 }

let now_ms q = Array.unsafe_get q.clock 0

let now q = q.clock_t

let past q ms = now_ms q > ms

let overdue q ~since ~limit = now_ms q -. since > limit

let schedule q ~at ev =
  if Time.to_ms at < now_ms q then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: %s is in the past (now %s)" (Time.to_string at)
         (Time.to_string (now q)));
  Pqueue.push q.queue ~priority:(Time.to_ms at) ev

let reserve_seq q = Pqueue.reserve_seq q.queue

let next_before q other = Pqueue.min_before q.queue other

let[@inline] advance_to q at =
  if at > now_ms q then begin
    Array.unsafe_set q.clock 0 at;
    q.clock_t <- Time.unsafe_of_ms at
  end;
  q.popped <- q.popped + 1

let advance q lane i = advance_to q (Array.get lane i)

let schedule_after q ~delay_ms ev =
  let delay_ms = if delay_ms < 0. then 0. else delay_ms in
  schedule q ~at:(Time.add_ms (now q) delay_ms) ev

let is_empty q = Pqueue.is_empty q.queue

let next_exn q =
  let at = Pqueue.min_priority q.queue in
  let ev = Pqueue.pop_exn q.queue in
  advance_to q at;
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
