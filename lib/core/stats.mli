(** Descriptive statistics over repeated runs.

    Each experiment in the paper is "performed 100 times to calculate the
    average and standard deviation" (§IV); this module computes those
    summaries for any float-valued metric. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** Population standard deviation; 0 for a single sample. *)
  min : float;
  max : float;
  median : float;  (** p50 (linear interpolation, like {!percentile}). *)
  p95 : float;  (** Tail latency: 95th percentile. *)
  p99 : float;  (** Tail latency: 99th percentile. *)
}

val of_list : float list -> t
(** @raise Invalid_argument on []. *)

val percentile : float list -> float -> float
(** [percentile samples p] with [p] in [\[0, 100\]], linear interpolation.
    @raise Invalid_argument on [] or out-of-range [p]. *)

val pp : Format.formatter -> t -> unit
(** e.g. ["1234.5 ± 67.8 (n=20, p50/p95/p99 1230.0/1340.0/1360.0)"]. *)

val pp_ms_as_s : Format.formatter -> t -> unit
(** Renders a milliseconds-valued statistic in seconds. *)
