(** Simulation-aware logging.

    Thin layer over {!Logs} that prefixes every line with the virtual clock,
    so a log of a run reads as a timeline.  The current time is injected by
    the controller via {!install}; library code only calls the level
    helpers. *)

val src : Logs.src
(** The [bftsim] log source; adjust its level with [Logs.Src.set_level]. *)

type hooks
(** A run's clock, and the mirror of its warn/err lines. *)

val hooks : now:(unit -> Time.t) -> ?mirror:(level:Logs.level -> string -> unit) -> unit -> hooks
(** [hooks ~now ?mirror ()] prefixes log lines with the clock [now].  The
    [mirror] is called with every formatted [warn]/[err] line, {e regardless}
    of the [Logs] reporting level: the controller uses it to surface
    warnings as trace instants when tracing is enabled. *)

val install : hooks -> unit
(** Makes [hooks] those of the calling domain (the hooks live in
    domain-local storage, so concurrent simulations on different domains do
    not race), unless they already are: one domain-local read.  Until a
    first [install], lines report {!Time.zero} and nothing is mirrored. *)

val uninstall : hooks -> unit
(** Clears the calling domain's hooks if they are [hooks], and leaves
    another run's in place. *)

val debug : ('a, Format.formatter, unit, unit) format4 -> 'a
val info : ('a, Format.formatter, unit, unit) format4 -> 'a
val warn : ('a, Format.formatter, unit, unit) format4 -> 'a
val err : ('a, Format.formatter, unit, unit) format4 -> 'a

val setup_for_cli : level:Logs.level option -> unit
(** Installs a [Fmt]-based reporter on stderr; used by [bin/] and
    [examples/]. *)
