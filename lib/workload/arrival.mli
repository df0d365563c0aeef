(** Open-loop client arrival processes (DESIGN.md §3.16).

    Clients submit requests at their own pace regardless of how the system
    keeps up — the open-loop model that exposes a saturation knee in the
    throughput-latency curve.  A process is a pure description;
    {!next_gap_ms} draws the time to the next arrival, so the stream is a
    deterministic function of the seed. *)

open Bftsim_sim

type t =
  | Constant of { rate : float }  (** Evenly spaced arrivals at [rate] req/s. *)
  | Poisson of { rate : float }  (** Memoryless arrivals, exponential gaps. *)
  | On_off of { rate : float; on_ms : float; off_ms : float }
      (** Poisson at [rate] during [on_ms] bursts separated by [off_ms]
          silences; phase is cycle-aligned to t = 0. *)

val constant : rate:float -> t
val poisson : rate:float -> t
val on_off : rate:float -> on_ms:float -> off_ms:float -> t

val with_rate : t -> float -> t
(** Same process shape at a different rate — how a rate sweep reuses one
    [--arrival] spec across its points.
    @raise Invalid_argument unless the rate is finite and positive. *)

val mean_rate : t -> float
(** Long-run offered rate: [rate] for constant/Poisson, duty-cycle-scaled
    for on/off. *)

val next_gap_ms : t -> now_ms:float -> Rng.t -> float
(** Time until the next arrival after [now_ms].  For on/off the drawn gap
    elapses over on-time only: arrivals never land in an off window. *)

val next_gap_into : t -> now_ms:float -> Rng.t -> float array -> unit
(** [next_gap_into t ~now_ms rng cell] writes what {!next_gap_ms} would
    return to [cell.(0)], so the draw boxes no float. *)

val describe : t -> string
(** Human rendering, e.g. ["Poisson(500/s)"]. *)

val to_cli_string : t -> string
(** Parseable rendering; [of_string (to_cli_string t) = Ok t]. *)

val of_string : string -> (t, string) result
(** Parses ["constant:<rate>"], ["poisson:<rate>"],
    ["onoff:<rate>,<on_ms>,<off_ms>"] (alias ["burst:..."]). *)
