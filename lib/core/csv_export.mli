(** CSV export of simulation results.

    The paper's workflow plots figures from simulator output; this module
    renders per-run results and per-configuration summaries as CSV so any
    plotting tool can consume them ([bftsim sweep --csv out.csv]). *)

val result_header : string
(** Column names for {!result_row}. *)

val result_row : Controller.result -> string
(** One line per run: protocol, n, seed, lambda, delay, attack, outcome,
    time_ms, per-decision latency/messages, messages, bytes, dropped,
    events, max final view, safety, liveness-failure flag and the online
    monitors' violation count.  Implemented as {!digest_row} over the
    result's digest, so live and journal-resumed exports coincide. *)

val digest_row : Config.t -> Journal.digest -> string
(** {!result_row} from a journal digest plus its cell's configuration
    (the digest supplies the per-rep seed) — the form resumed campaigns
    use, where no live [Controller.result] exists. *)

val summary_header : string

val summary_row : Runner.summary -> string
(** One line per configuration: latency and message
    mean/stddev/min/max/p50/p95/p99, liveness failures, safety
    violations. *)

val escape : string -> string
(** RFC-4180 quoting for fields containing commas, quotes or newlines. *)

val write_file : path:string -> header:string -> rows:string list -> unit
(** Writes header + rows; overwrites [path]. *)
