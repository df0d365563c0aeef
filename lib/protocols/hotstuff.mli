(** HotStuff with a naive view-doubling synchronizer — "HotStuff+NS"
    (paper §III-B5).

    Chained (pipelined) HotStuff with linear leader communication and
    optimistic responsiveness.  The HotStuff paper leaves the PaceMaker
    abstract; following the simulator paper, this instantiation uses the
    naive exponential view-doubling synchronizer of Naor et al., whose
    never-resetting back-off is responsible for the dramatic behaviours in
    the paper's Figs. 5, 6 and 9.  The consensus machinery itself lives in
    {!Chained_core}. *)

include Protocol_intf.S with type node = Chained_core.node
