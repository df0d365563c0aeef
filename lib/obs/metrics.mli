(** Metrics registry: named counters, gauges and fixed-bucket histograms.

    One registry belongs to one simulation run; the controller creates it,
    instrumentation writes to it without synchronization, and it rides out
    on [Controller.result].  Aggregation across runs goes through {!merge},
    which folds registries {e in the order given} — the runner passes seed
    order, so the merged registry is identical whatever domain pool executed
    the runs.

    {b Determinism rule}: registry values must derive only from simulated
    quantities.  Wall-clock measurements belong to the {!Tracer}; putting
    them in a registry would break the bit-identical-summaries guarantee. *)

type t

type histogram
(** Mutable fixed-bucket histogram handle (pre-resolved, hot-path safe). *)

val create : unit -> t

(** {1 Recording} *)

val counter : t -> string -> int ref
(** Get-or-create; the returned ref is the live cell, so call sites can
    resolve once and increment without further lookups. *)

val incr : ?by:int -> t -> string -> unit

val set_gauge : t -> string -> float -> unit

val histogram : ?buckets:float array -> t -> string -> histogram
(** Get-or-create with the given upper bounds (strictly increasing; an
    overflow bucket is implicit).  [buckets] is only consulted on creation.
    @raise Invalid_argument on an empty or non-increasing layout, or if
    [name] is registered as a different cell type. *)

val observe_h : histogram -> float -> unit
(** Record one observation: bucket [i] holds values [<= bounds.(i)]
    (exceeding every bound lands in the overflow bucket); sum, count, min
    and max are tracked exactly. *)

val observe : ?buckets:float array -> t -> string -> float -> unit
(** [histogram] + [observe_h] in one call (per-call lookup; prefer the
    pre-resolved handle on hot paths). *)

val null_counter : unit -> int ref
(** A dead cell for disabled telemetry: increments go nowhere, so the
    disabled path costs one store instead of a branch per probe. *)

(** {1 Snapshots and aggregation} *)

type histogram_snapshot = {
  s_bounds : float array;
  s_counts : int array;
  s_sum : float;
  s_count : int;
  s_min : float;  (** [infinity] when empty. *)
  s_max : float;  (** [neg_infinity] when empty. *)
}

type value = Counter_v of int | Gauge_v of float | Histogram_v of histogram_snapshot

val snapshot : t -> (string * value) list
(** Immutable copy, sorted by name — deterministic whatever the hash
    table's internal order. *)

val quantile_of_snapshot : histogram_snapshot -> float -> float
(** Quantile estimate ([p] in [0, 100]) from bucket counts with linear
    interpolation inside the bucket, clamped to the observed min/max.
    [nan] when empty. *)

val merge : t list -> t
(** Deterministic fold in list order: counters add, gauges keep the max,
    histograms add bucket-wise.
    @raise Invalid_argument when one name carries different cell types or
    bucket layouts across registries. *)

val equal : t -> t -> bool
(** Snapshot equality (used by determinism checks). *)

val pp : Format.formatter -> t -> unit
(** One line per cell in name order; histograms render count/sum/min/max
    and p50/p95/p99 estimates. *)

val to_json : t -> Json.t
(** Lossless tagged encoding: each cell is [{"counter": n}], [{"gauge": x}]
    or [{"histogram": {...}}] (the tag disambiguates a gauge holding an
    integral value from a counter).  Floats use the codec's shortest
    round-tripping representation, so {!of_json} reconstructs the registry
    exactly — the property the campaign journal's resume path relies on. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json t)] is a registry whose
    {!snapshot} equals [t]'s. *)
