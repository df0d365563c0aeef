(** Bounded FIFO mempool of pending client requests (DESIGN.md §3.16).

    The proposer path drains it in arrival order when a batch is cut; the
    capacity bound models admission control — a full pool rejects (and
    counts) new requests instead of queueing without limit, which keeps
    overdriven open-loop runs finite past the saturation knee.  Requests
    from batches that went stale on a view change are {!requeue}d at the
    front of the pool, preserving FIFO order, instead of being dropped. *)

type request = {
  id : int;  (** Deterministic request id (submission order). *)
  arrived_ms : float;  (** Arrival timestamp — latency measurement start. *)
  key : int;  (** Contention key (see {!Keys}); [0] for unkeyed runs. *)
  client : int;  (** Issuing closed-loop client, [-1] for open-loop. *)
}

type t

val create : capacity:int -> t
(** @raise Invalid_argument unless [capacity > 0]. *)

val add : t -> request -> bool
(** Enqueue; [false] means the pool was full and the request was dropped
    (the drop is counted). *)

val full : t -> bool
(** {!add} would drop a request now. *)

val reject : t -> unit
(** Counts a request dropped without being built: what {!add} does to one
    when the pool is {!full}. *)

val requeue : t -> request list -> unit
(** Return a stale batch's requests (given in FIFO order) to the front of
    the pool, ahead of younger requests.  Deliberately bypasses the
    capacity bound — these requests were already admitted once — so the
    pool can transiently exceed [capacity] after a view change. *)

val take : t -> max:int -> request list
(** Dequeue up to [max] requests in FIFO order (may return fewer, or []).
    Re-queued requests are served first. *)

val to_list : t -> request list
(** Snapshot of pending requests in service order (does not dequeue). *)

val length : t -> int

val dropped : t -> int
(** Requests rejected by the bound so far. *)

val requeued : t -> int
(** Requests returned by {!requeue} so far (counting re-admissions, so a
    twice-requeued request counts twice). *)

val peak : t -> int
(** High-water mark of the pool depth. *)
