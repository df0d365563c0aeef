(** Lines-of-code inventory (paper Tables I and II).

    The paper reports the size of each protocol and attack implementation
    as evidence that the simulator makes them cheap to write; this module
    measures the same inventory over this repository's sources at run time.
    Counting is non-blank, non-comment-only lines of the [.ml] file
    (interfaces are documentation and excluded, as the paper counts
    implementation code). *)

type entry = { label : string; network_model : string; files : string list; loc : int }

val table1 : root:string -> entry list
(** The eight protocol implementations, in the paper's Table I order.
    [root] is the repository root (containing [lib/]). *)

val table2 : root:string -> entry list
(** The three attack implementations of Table II. *)

val find_root : unit -> string option
(** Walks upward from the current directory and the executable's directory
    looking for the repository root (identified by [lib/protocols]). *)
