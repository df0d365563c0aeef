(** Append-only JSONL campaign journal (DESIGN.md §3.13).

    A long sweep, load or fuzzing campaign writes one {!Done} line per
    completed item (a replication's {!digest}, a load point, a passed
    conformance check) plus one per failed attempt; after a crash or
    SIGKILL, [--resume] loads the journal, skips finished items, and
    re-runs only the rest.  [Runner.campaign_map] is the only writer and
    reader of these records.

    The resume contract is {e byte-identity}: a digest carries every field
    the merged summary, the per-run CSV row, and the metrics merge consume
    — encoded through {!Bftsim_obs.Json}, whose float representation
    round-trips exactly — and the campaign drivers rebuild their summaries
    from digests on the live path too, so an interrupted-and-resumed
    campaign and an uninterrupted one produce identical output at any
    [--jobs].

    Two safety properties for unclean deaths: every append is flushed
    before returning, and {!load} tolerates a torn final line (a record cut
    mid-write by SIGKILL is dropped, not fatal). *)

type digest = {
  rep : int;  (** Replication index within its campaign cell. *)
  seed : int;
  outcome : string;  (** Outcome class, as {!outcome_class}. *)
  last_progress_ms : float option;  (** For [stalled] outcomes. *)
  time_ms : float;
  latency_ms : float;
  messages : float;  (** Per-decision message count. *)
  messages_sent : int;
  bytes_sent : int;
  messages_dropped : int;
  events : int;
  max_view : int;
  safety_ok : bool;
  violations : int;
  metrics : Bftsim_obs.Json.t option;
      (** Tagged registry encoding ([Metrics.to_json]). *)
}
(** Everything downstream consumers need from one completed replication —
    deliberately {e not} the full [Controller.result], which carries
    unbounded per-run data (decisions, traces) a journal must not hold. *)

val outcome_class : Controller.outcome -> string
(** CSV-stable class name: ["reached-target"], ["timed-out"],
    ["event-cap"], ["queue-drained"] or ["stalled"]. *)

val digest_of_result : rep:int -> Controller.result -> digest

val digest_to_json : digest -> Bftsim_obs.Json.t

val digest_of_json : Bftsim_obs.Json.t -> (digest, string) result

type event =
  | Done of { cell : string; index : int; body : Bftsim_obs.Json.t }
      (** Item [index] of campaign cell [cell] completed; [body] is the
          campaign's own encoding of its result (a {!digest}, a load point,
          or nothing for a passed check).  The encoding goes through
          {!Bftsim_obs.Json}, so resumed and live results are byte-equal. *)
  | Failure of {
      cell : string;
      index : int;
      attempt : int;
      wall_ms : float;
      kind : string;  (** ["crash"] or ["deadline"]. *)
      detail : string;  (** Exception text for crashes. *)
      backtrace : string;
    }
      (** A failed supervised attempt — diagnostic record; resume ignores
          it and re-runs the unit. *)

val cell_of_config : Config.t -> string
(** Stable fingerprint of one campaign cell: SHA-256 over the config's
    key-value form (which includes the base seed), hex. *)

val fingerprint : mode:string -> reps:int -> Config.t list -> string
(** Campaign fingerprint — mode, replication count and every cell — used
    to reject resuming a journal against a different campaign. *)

(** {1 Writing} *)

type t
(** An open journal: append handle shared across domains (mutex-protected,
    flushed per event). *)

val create : fingerprint:string -> string -> t
(** Truncate/create the file and write the header line. *)

val append : t -> event -> unit

val close : t -> unit

(** {1 Reading} *)

val load : string -> (string * event list, string) result
(** [(fingerprint, events)] in file order.  A torn final line is dropped;
    a malformed line elsewhere, a missing file, a missing/foreign header,
    or a header of another format version is an [Error]. *)

val resume : fingerprint:string -> string -> (t * event list, string) result
(** {!load}, verify the fingerprint matches this campaign, and reopen the
    file for appending (existing events are kept). *)

val completed : event list -> cell:string -> (int * Bftsim_obs.Json.t) list
(** The {!Done} records of one cell, as [(index, body)] in file order,
    keeping the {e first} record per index (an interrupted append cannot
    duplicate a completed item, but first-wins makes the choice
    explicit). *)
