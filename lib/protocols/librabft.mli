(** LibraBFT (paper §III-B6).

    Identical chained-HotStuff consensus core as {!Hotstuff}, but the
    PaceMaker advances views with broadcast timeout votes aggregated into
    timeout certificates, and its back-off resets on progress.  This gives a
    termination bound after GST: when the network heals, one certificate
    round re-synchronizes every honest node — which is why LibraBFT recovers
    quickly in the paper's partition and delay-underestimation experiments
    where HotStuff+NS collapses. *)

include Protocol_intf.S with type node = Chained_core.node
