(* Allocation-free 4-ary min-heap in parallel lanes.

   The heap state lives in three flat arrays indexed by heap slot: an
   unboxed float lane for priorities, an int lane for insertion sequence
   numbers, and a uniform lane for the payloads.  A push or pop therefore
   moves words between flat arrays instead of allocating and chasing a
   boxed entry record per element — the representation the simulator's
   per-event cost budget rests on (DESIGN.md §3.15).

   The payload lane is created from an immediate filler, so it is always a
   generic (pointer/immediate) array even when ['a] is [float]; payloads of
   float type are stored boxed, which is the only representation the
   polymorphic reads below are correct for.  Vacated slots are overwritten
   with the filler on [pop]/[clear] so the heap never pins popped payloads
   (the space leak the boxed representation had). *)

type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* An immediate stand-in for an empty payload slot.  Guarded by [size]:
   no code path ever reads a slot holding the filler. *)
let filler : unit -> 'a = fun () -> Obj.magic 0

let create ?(initial_capacity = 0) () =
  let cap = Stdlib.max 0 initial_capacity in
  {
    prio = Array.make cap 0.;
    seq = Array.make cap 0;
    vals = Array.make cap (filler ());
    size = 0;
    next_seq = 0;
  }

let length q = q.size

let is_empty q = q.size = 0

(* [before q i j] decides heap order between slots: smaller priority first,
   insertion order on ties.  This is the invariant the whole simulator's
   determinism rests on.  NaN never enters ([push] rejects it), so [=] on
   the priority lane coincides with [Float.equal]. *)
let[@inline] before q i j =
  let pi = Array.unsafe_get q.prio i and pj = Array.unsafe_get q.prio j in
  pi < pj || (pi = pj && Array.unsafe_get q.seq i < Array.unsafe_get q.seq j)

let grow q =
  let cap = Stdlib.max 64 (2 * Array.length q.prio) in
  let prio' = Array.make cap 0. in
  let seq' = Array.make cap 0 in
  let vals' = Array.make cap (filler ()) in
  Array.blit q.prio 0 prio' 0 q.size;
  Array.blit q.seq 0 seq' 0 q.size;
  Array.blit q.vals 0 vals' 0 q.size;
  q.prio <- prio';
  q.seq <- seq';
  q.vals <- vals'

(* Slot [i]'s children are [4i+1 .. 4i+4], adjacent in every lane, and its
   parent is [(i-1)/4].  Four-way fan-out halves the depth of a binary
   heap: a pop at the n^2 pending events of a large broadcast round walks
   half as many levels, and the four children it compares sit in 32
   contiguous bytes of the priority lane.  Both sifts move a hole instead of swapping,
   so each level costs one write per lane. *)

let[@inline] move q ~src ~dst =
  Array.unsafe_set q.prio dst (Array.unsafe_get q.prio src);
  Array.unsafe_set q.seq dst (Array.unsafe_get q.seq src);
  Array.unsafe_set q.vals dst (Array.unsafe_get q.vals src)

(* Moves the entry at slot [i] up to its place. *)
let sift_up q i =
  let p = Array.unsafe_get q.prio i and s = Array.unsafe_get q.seq i in
  let v = Array.unsafe_get q.vals i in
  let hole = ref i and climbing = ref true in
  while !climbing && !hole > 0 do
    let parent = (!hole - 1) lsr 2 in
    let pp = Array.unsafe_get q.prio parent in
    if p < pp || (p = pp && s < Array.unsafe_get q.seq parent) then begin
      move q ~src:parent ~dst:!hole;
      hole := parent
    end
    else climbing := false
  done;
  Array.unsafe_set q.prio !hole p;
  Array.unsafe_set q.seq !hole s;
  Array.unsafe_set q.vals !hole v

(* Places the entry held at slot [from] (at or past [size]) into the hole
   at the root, moving smaller children up along the way. *)
let sift_down_from q ~from =
  let p = Array.unsafe_get q.prio from and s = Array.unsafe_get q.seq from in
  let v = Array.unsafe_get q.vals from in
  let size = q.size in
  let hole = ref 0 and sinking = ref true in
  while !sinking do
    let first = (4 * !hole) + 1 in
    if first >= size then sinking := false
    else begin
      (* Not [Stdlib.min]: it is polymorphic, so every call would reach the
         C comparison. *)
      let last = if first + 3 < size then first + 3 else size - 1 in
      let best = ref first in
      for c = first + 1 to last do
        if before q c !best then best := c
      done;
      let b = !best in
      let pb = Array.unsafe_get q.prio b in
      if pb < p || (pb = p && Array.unsafe_get q.seq b < s) then begin
        move q ~src:b ~dst:!hole;
        hole := b
      end
      else sinking := false
    end
  done;
  Array.unsafe_set q.prio !hole p;
  Array.unsafe_set q.seq !hole s;
  Array.unsafe_set q.vals !hole v

let[@inline] insert q priority seq value =
  if Float.is_nan priority then invalid_arg "Pqueue.push: NaN priority";
  if q.size = Array.length q.prio then grow q;
  let i = q.size in
  Array.unsafe_set q.prio i priority;
  Array.unsafe_set q.seq i seq;
  Array.unsafe_set q.vals i value;
  q.size <- i + 1;
  sift_up q i

let reserve_seq q =
  let s = q.next_seq in
  q.next_seq <- s + 1;
  s

let push q ~priority value = insert q priority (reserve_seq q) value

(* The priority is read here, from the caller's lane: a float passed to a
   function of another module would be boxed. *)
let min_precedes q lane i ~seq =
  q.size > 0
  &&
  let p = Array.unsafe_get q.prio 0 and key = Array.get lane i in
  p < key || (p = key && Array.unsafe_get q.seq 0 < seq)

let min_priority q =
  if q.size = 0 then invalid_arg "Pqueue.min_priority: empty queue";
  Array.unsafe_get q.prio 0

let pop_exn q =
  let n = q.size - 1 in
  if n < 0 then invalid_arg "Pqueue.pop_exn: empty queue";
  let v = Array.unsafe_get q.vals 0 in
  q.size <- n;
  (* The last entry, still readable at slot [n], refills the root. *)
  if n > 0 then sift_down_from q ~from:n;
  (* Clear the vacated slot so the heap does not pin the payload. *)
  Array.unsafe_set q.vals n (filler ());
  v

let pop q =
  if q.size = 0 then None
  else begin
    let priority = Array.unsafe_get q.prio 0 in
    let v = pop_exn q in
    Some (priority, v)
  end

let peek q =
  if q.size = 0 then None else Some (Array.unsafe_get q.prio 0, Array.unsafe_get q.vals 0)

let clear q =
  Array.fill q.vals 0 q.size (filler ());
  q.size <- 0

let to_sorted_list q =
  let idx = Array.init q.size Fun.id in
  Array.sort (fun i j -> if before q i j then -1 else 1) idx;
  Array.to_list (Array.map (fun i -> (q.prio.(i), q.vals.(i))) idx)
