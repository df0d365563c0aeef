(** One run's node lifecycle (DESIGN.md §3.6): which nodes are down when,
    each node's incarnation, what becomes of a down node's alarm, and the
    write-ahead log that survives a restart.  It reads the config-crashed
    set and the chaos plan's crash, recover and restart steps once; the
    controller, the transport's wire and down-node stage and the invariant
    monitor all ask it. *)

type t

val create : Config.t -> cpus:Cost_model.cpu array -> now_ms:(unit -> float) -> t
(** [cpus] are charged [wal_ms] per WAL write. *)

val plan : t -> Bftsim_attack.Fault_schedule.t
(** The chaos plan, normalized. *)

val absent : t -> int -> bool
(** Config-crashed: the node never runs. *)

val down : t -> node:int -> at_ms:float -> bool
(** The chaos plan has the node crashed at [at_ms]. *)

val gone : t -> int -> bool
(** Absent, or crashed by the plan for good. *)

val ever_down : t -> int -> bool

val crashes : t -> bool
(** The plan crashes some node. *)

val durable : t -> bool
(** The plan restarts some node. *)

val incarnation : t -> int -> int

type fate = Runs | Deferred of float  (** to the owner's restart instant *) | Lost

val alarm : t -> owner:int -> at_ms:float -> fate
(** What becomes of a node's alarm due at [at_ms]. *)

val restart : t -> int -> unit
(** Starts the node's next incarnation. *)

val caught_up : t -> int -> float option
(** The node reports it has caught up: the milliseconds since its restart
    for the first report after one, [None] otherwise. *)

val persist : t -> int -> key:string -> string -> unit

val recall : t -> int -> key:string -> string option
