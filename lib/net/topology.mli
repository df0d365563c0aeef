(** Logical network topology.

    The simulator models a fully connected peer-to-peer overlay; the
    topology adds three refinements used by experiments:

    - {b subnets}: a partition of the node set into groups.  The partition
      attacker (paper §III-C) filters on subnet boundaries.
    - {b per-pair latency scaling}: heterogeneous links (e.g. a slow
      cross-datacenter pair) without changing the global delay model.
    - {b geographic zones}: named regions with an inter-zone RTT matrix.
      When zones are present the network adds the one-way zone latency
      (RTT/2) to every sampled delay, turning the delay model into the
      jitter on top of geographic propagation. *)

type t

val fully_connected : int -> t
(** [fully_connected n] is the default topology: everyone in subnet 0,
    uniform latency scaling, no zones. *)

val n : t -> int

val with_subnets : t -> int array -> t
(** [with_subnets t assignment] places node [i] in subnet [assignment.(i)].
    The derived topology gets its own copy of the mutable per-pair scale
    table, so later [set_pair_scale] calls do not alias.
    @raise Invalid_argument if the array length differs from [n t]. *)

val split_in_two : int -> first_size:int -> t
(** Convenience: nodes [0 .. first_size-1] in subnet 0, the rest in
    subnet 1 — the two-subnet partition of the paper's Fig. 6. *)

val subnet_of : t -> int -> int

val same_subnet : t -> int -> int -> bool

val set_pair_scale : t -> src:int -> dst:int -> float -> unit
(** Multiplies sampled delays on the directed link [src -> dst].
    @raise Invalid_argument if [src] or [dst] is not a node of [t]. *)

val pair_scale : t -> src:int -> dst:int -> float
(** The scaling factor for a directed link; 1.0 by default. *)

(** {1 Geographic zones} *)

val with_zones : t -> names:string array -> assignment:int array -> rtt_ms:float array array -> t
(** [with_zones t ~names ~assignment ~rtt_ms] attaches named zones: node [i]
    lives in zone [assignment.(i)]; [rtt_ms.(a).(b)] is the round-trip time
    between zones [a] and [b] (the diagonal is the intra-zone RTT).  All
    input arrays are copied.
    @raise Invalid_argument if the matrix is not square/symmetric, has
    negative or non-finite entries, or the assignment is out of range. *)

val zone_count : t -> int
(** Number of zones; [0] when the topology has none. *)

val zone_of : t -> int -> int option
(** Zone index of a node, [None] without zones. *)

val zone_name : t -> int -> string
(** @raise Invalid_argument when the topology has no zones. *)

val zone_rtt_ms : t -> a:int -> b:int -> float
(** Round-trip time between the zones of nodes [a] and [b]; [0.] without
    zones.  Symmetric by construction. *)

val zone_delay_ms : t -> src:int -> dst:int -> float
(** One-way propagation between the zones of [src] and [dst]: half the
    zone-pair RTT; [0.] without zones. *)

val intra_rtt : float
(** Intra-zone RTT (ms) used by the zone-spec presets: the diagonal of
    every generated matrix. *)

val round_robin_assignment : n:int -> zones:int -> int array
(** Node [i] in zone [i mod zones] — the default replica placement. *)

val zones_of_spec : string -> (string array * float array array, string) result
(** Parses a zone spec: the presets ["geo3"] / ["geo5"] (approximate
    inter-region RTTs across 3/5 regions, 2 ms intra-zone), or
    ["uniform:<zones>@<rtt_ms>"] for [k] symmetric zones. *)

val of_zone_spec : string -> n:int -> (t, string) result
(** [of_zone_spec spec ~n] builds a fully connected topology with the spec's
    zones and a round-robin replica placement. *)
