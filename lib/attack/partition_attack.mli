(** Network-partition attack (paper §III-C, Table II; evaluated in Fig. 6).

    Divides the network into subnets and filters traffic crossing subnet
    boundaries during the attack window, exactly as Algorand's adversary
    model describes: "the attacker can either drop or delay the packets
    between different subnets".  Subnet membership is the spec's own
    [groups] array. *)

type mode =
  | Drop_cross_traffic  (** Cross-subnet messages vanish. *)
  | Delay_until_heal of { jitter_ms : float }
      (** Cross-subnet messages are buffered by the adversary and released
          at heal time plus a uniform jitter in [\[0, jitter_ms)]. *)

type spec = {
  groups : int array;  (** Subnet of each node. *)
  start_ms : float;  (** Attack begins (simulation time). *)
  heal_ms : float;  (** Attack ends; must be [>= start_ms]. *)
  mode : mode;
}

val make : spec -> Attacker.t
(** @raise Invalid_argument on an ill-formed window. *)

val two_subnets : n:int -> first_size:int -> start_ms:float -> heal_ms:float -> mode -> Attacker.t
(** The two-subnet split used in the paper's partition experiment. *)
