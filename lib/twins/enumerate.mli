(** Bounded, symmetry-reduced enumeration of twins attack schedules (Bano
    et al., "Twins: BFT Systems Made Robust", §IV).

    The enumerator walks every schedule of [rounds] rounds over one twinned
    identity (logical 0, halves at physical 0 and [n]), where a round is
    either fully connected or a two-block partition, crossed with an
    optional leader prefix pinned on the twin.  Two prunings keep the space
    small without losing executions:

    - {e honest interchangeability}: blocks always take a prefix of the
      honest ids, so partitions differing only in {e which} honest nodes
      are split collapse to one shape;
    - {e canonicalization}: per-round block relabeling and the global swap
      of the two twin halves are quotiented out ({!canonical_key}).

    Emission is most-adversarial-first ({!adversarial_weight}), so budgeted
    campaigns examine leader-pinned, half-isolating schedules — the shapes
    that historically break pacemakers — before benign ones. *)

type round =
  | Healed
  | Split of { h : int; a : int; b : int }
      (** [h] honest nodes (logical 1..h) in block 1, the rest in block 2;
          [a]/[b] in [{1, 2}] place twin half A (physical 0) and half B
          (physical n). *)

type schedule = {
  rounds : round list;
  pinned : int;  (** Views 0..pinned-1 led by the twin; 0 = no pinning. *)
}

type stats = {
  enumerated : int;  (** Raw schedules before deduplication. *)
  unique : int;  (** After canonicalization. *)
  emitted : int;  (** After the campaign budget cap (0 from {!enumerate}). *)
}

val canonical_key : n:int -> schedule -> (int * int * int) list * int
(** Stable deduplication key: least encoding under per-round block swaps
    and the global half swap. *)

val enumerate : n:int -> rounds:int -> schedule list * stats
(** All unique schedules for [n] logical nodes, most-adversarial-first
    (ties broken by canonical key, so the order is deterministic).
    [stats.emitted] is 0; campaigns fill it after applying their budget.
    @raise Invalid_argument when [n < 2] or [rounds < 1]. *)

val to_twins_schedule :
  n:int -> round_ms:float -> schedule -> Bftsim_attack.Twins_schedule.t
(** Compile to the executable schedule the controller consumes. *)
