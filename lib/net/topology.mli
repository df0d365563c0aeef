(** Logical network topology.

    The simulator models a fully connected peer-to-peer overlay; a topology
    may add geographic zones: named regions with an inter-zone RTT matrix.
    When zones are present the network adds the one-way zone latency
    (RTT/2) to every sampled delay, turning the delay model into the
    jitter on top of geographic propagation. *)

type t

val fully_connected : int -> t
(** [fully_connected n] is the default topology: [n] nodes, no zones. *)

val n : t -> int

(** {1 Geographic zones} *)

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

val zones_of_spec : string -> (string array * float array array, string) result
(** Parses a zone spec: the presets ["geo3"] / ["geo5"] (approximate
    inter-region RTTs across 3/5 regions, 2 ms intra-zone), or
    ["uniform:<zones>@<rtt_ms>"] for [k] symmetric zones. *)

val of_zone_spec : string -> n:int -> (t, string) result
(** [of_zone_spec spec ~n] builds a fully connected topology with the spec's
    zones and a round-robin replica placement. *)
