(** Trace exporters: JSONL and Chrome [trace_event] JSON.

    The Chrome output is the object form ([{"traceEvents": [...]}]) that
    [chrome://tracing] and Perfetto load directly; JSONL emits the same
    per-event objects one per line for grep/jq pipelines.  Timestamps
    ("ts"/"dur") are {e simulated} microseconds — the protocol timeline —
    while each event's [args.wall_us] carries the wall-clock offset for
    host-time attribution. *)

type format = Jsonl | Chrome

val chrome_json : Tracer.t -> Json.t
(** The full document, including recorded/dropped totals in [otherData]. *)

val write_file : path:string -> format:format -> Tracer.t -> unit
(** Overwrites [path]. *)
