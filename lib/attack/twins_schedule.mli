(** Twins-style attacker schedules (Bano et al., "Twins: BFT Systems Made
    Robust").

    A twins schedule names a set of logical identities to duplicate, a
    per-round network-partition schedule over the resulting {e physical}
    replica set, and an optional per-view leader assignment. Running the
    duplicates with identical credentials but divergent state mechanically
    emulates equivocation, double voting, and state loss without any
    per-protocol attacker code.

    Physical-id convention: with [n] logical nodes and twinned identities
    [ids = [i0; i1; ...]], the twin half of [ik] is physical node [n + k].
    Physical ids [0..n-1] keep their logical meaning. *)

type t = {
  ids : int list;  (** logical identities that get a twin, each at most once *)
  round_ms : float;  (** duration of one schedule round, in sim-ms; > 0 *)
  rounds : int list list list;
      (** [rounds.(r)] is the partition for round [r] as groups of {e physical}
          ids; [[]] means fully connected. Nodes absent from every group share
          an implicit residual block ({!Fault_schedule.splits}). After the
          last round the network is healed. *)
  leaders : int list;
      (** per-view leader override ({e logical} ids); views beyond the list
          fall back to the protocol's own rotation. [[]] = no override. *)
}

val count : t -> int
(** Number of twinned identities. *)

val physical_n : n:int -> t -> int
(** Total physical replicas: [n + count t]. *)

val logical : n:int -> t -> int -> int
(** [logical ~n t phys] maps a physical id back to its logical identity.
    Raises [Invalid_argument] if [phys] is not a valid physical id. *)

val twin_instance : n:int -> t -> int -> int option
(** Physical id of the twin half of logical [id], if [id] is twinned. *)

val instances : n:int -> t -> int -> int list
(** All physical instances of a logical identity (one or two). *)

val end_ms : t -> float
(** Time at which the schedule is exhausted and the network heals. *)

val round_at : t -> at_ms:float -> int
(** Round index in effect at [at_ms] (clamped to 0 for negative times). *)

val separated : t -> src:int -> dst:int -> at_ms:float -> bool
(** Whether the partition in effect at [at_ms] separates two physical ids. *)

val isolated_below_quorum : n:int -> quorum:int -> t -> node:int -> bool
(** Whether some round places {e logical} identity [node] (any of its
    instances) in a block of fewer than [quorum] distinct logical
    identities.  Such a node can miss decisions made on the quorum side, so
    its decision log may be incomplete — index-aligned agreement checks
    must skip it, exactly like a crash-recovered node. *)

val preserves_liveness : n:int -> quorum:int -> t -> bool
(** Whether liveness is a fair expectation under this schedule: [true] iff
    in every non-healed round each {e honest} (non-twinned) identity sits
    in a block of at least [quorum] distinct logical identities (twin
    halves count their shared identity once).  An honest node isolated in a
    sub-quorum block during a drop round can miss committed blocks forever
    — the engine models no state transfer — so such schedules are judged
    for safety only. *)

val validate : n:int -> t -> unit
(** Raises [Invalid_argument] with an actionable message on malformed
    schedules: empty/duplicate/out-of-range twin ids, non-positive round
    duration, out-of-range physical ids or double placement in a round,
    out-of-range leaders. *)

(** {2 Config-file syntax}

    [ids] and [leaders] render as comma-separated ints ("0" or "0,2");
    [rounds] renders one round per ';', groups separated by '|', members by
    ',', with "-" denoting a fully-connected round — e.g.
    ["0,1,4|2,3;-;0,4|1,2,3"]. *)

val ids_to_string : int list -> string

val ids_of_string : string -> (int list, string) result

val rounds_to_string : int list list list -> string

val rounds_of_string : string -> (int list list list, string) result

val describe : t -> string
