(** Lightweight event tracer over a bounded ring buffer.

    The controller records typed spans and instants (message
    enqueue→deliver, timer set→fire, event dispatch, decisions, view
    changes, mirrored warnings); {!Exporter} renders them as JSONL or
    Chrome [trace_event] JSON.  The buffer is fixed-size and overwrites
    oldest-first, so memory is bounded by [capacity] and a long run keeps
    the newest window — {!dropped} says how much history was shed. *)

type arg = Str of string | Int of int | Float of float

type phase = Complete  (** Chrome ["ph": "X"] — a duration. *) | Instant  (** ["ph": "i"]. *)

type entry = {
  name : string;
  cat : string;  (** Category: [net], [timer], [sim], [protocol], [log]. *)
  node : int;  (** Rendered as the Chrome thread id; -1 = controller. *)
  ts_us : float;  (** Simulated time in microseconds — the exported x-axis. *)
  dur_us : float;  (** Simulated duration; 0 for instants. *)
  wall_us : float;  (** Wall clock since tracer creation (microseconds). *)
  phase : phase;
  args : (string * arg) list;
}

type t

val create : ?capacity:int -> unit -> t
(** @raise Invalid_argument on a non-positive capacity. *)

val span :
  t ->
  ?args:(string * arg) list ->
  name:string ->
  cat:string ->
  node:int ->
  ts_us:float ->
  dur_us:float ->
  unit ->
  unit

val instant :
  t -> ?args:(string * arg) list -> name:string -> cat:string -> node:int -> ts_us:float -> unit -> unit

val entries : t -> entry list
(** Retained entries, oldest first. *)

val iter : t -> (entry -> unit) -> unit

val length : t -> int
(** Retained entry count ([min recorded capacity]). *)

val recorded : t -> int
(** Entries ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Entries lost to overwriting ([recorded - length]). *)
