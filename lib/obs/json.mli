(** Minimal JSON codec for the telemetry subsystem.

    Yojson is not among the project's dependencies, so this module provides
    the small slice the exporters and their tests need: a serializer used by
    {!Exporter}, and an RFC 8259 parser the test-suite uses to prove that
    exported traces are well-formed JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : t -> string
(** Compact serialization.  Strings are escaped per RFC 8259; non-finite
    floats (which JSON cannot represent) degrade to [null]. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete document: escapes (including [\uXXXX] with
    surrogate pairs, decoded to UTF-8), nested containers, and numbers
    (integers without exponent/fraction parse as {!Int}).  Trailing
    non-whitespace is an error. *)

val member : string -> t -> t option
(** Field lookup on an [Assoc]; [None] on anything else. *)

val to_list : t -> t list option

val to_string_opt : t -> string option

val to_number : t -> float option
(** [Int] and [Float] both coerce to float. *)

(** {1 Field readers}

    For decoders of persisted records: [what] names the record kind and
    prefixes every error, e.g. ["journal: missing field \"rep\""] or
    ["load point: \"rate\" is not a number"]. *)

val field : what:string -> string -> t -> (t, string) result

val int_field : what:string -> string -> t -> (int, string) result

val number_field : what:string -> string -> t -> (float, string) result
(** Accepts [Int] and [Float], like {!to_number}. *)

val string_field : what:string -> string -> t -> (string, string) result

val bool_field : what:string -> string -> t -> (bool, string) result
