(** Float rendering for text formats that are parsed back.

    ["%g"] keeps six significant digits, so [1234.5678] prints as
    ["1234.57"] and does not read back to the same float.  {!to_string}
    prints ["%g"] whenever that reads back exactly, and ["%.17g"]
    otherwise, so every value ["%g"] renders faithfully keeps its bytes. *)

val to_string : float -> string
(** [float_of_string (to_string x)] equals [x] for every float, [nan]
    included. *)
