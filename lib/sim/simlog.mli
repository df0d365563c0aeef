(** Simulation-aware logging.

    Thin layer over {!Logs} that prefixes every line with the virtual clock,
    so a log of a run reads as a timeline.  The current time is injected by
    the controller via {!set_now}; library code only calls the level
    helpers. *)

val src : Logs.src
(** The [bftsim] log source; adjust its level with [Logs.Src.set_level]. *)

val set_now : (unit -> Time.t) -> unit
(** Installs the clock accessor {e for the calling domain} (the hook lives
    in domain-local storage, so concurrent simulations on different domains
    do not race).  Called by the controller at run entry; the default
    reports {!Time.zero}. *)

val set_mirror : (level:Logs.level -> string -> unit) option -> unit
(** Installs (or clears, with [None]) the calling domain's log mirror: a
    callback invoked with every formatted [warn]/[err] line, {e regardless}
    of the [Logs] reporting level.  The controller uses it to surface
    warnings as trace instants when tracing is enabled.  Domain-local, like
    the clock. *)

val debug : ('a, Format.formatter, unit, unit) format4 -> 'a
val info : ('a, Format.formatter, unit, unit) format4 -> 'a
val warn : ('a, Format.formatter, unit, unit) format4 -> 'a
val err : ('a, Format.formatter, unit, unit) format4 -> 'a

val setup_for_cli : level:Logs.level option -> unit
(** Installs a [Fmt]-based reporter on stderr; used by [bin/] and
    [examples/]. *)
