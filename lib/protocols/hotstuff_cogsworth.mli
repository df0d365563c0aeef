(** HotStuff with the Cogsworth view synchronizer — extension protocol.

    Same chained-HotStuff core as {!Hotstuff} and {!Librabft}; the
    pacemaker is Naor et al.'s Cogsworth (the very paper the simulator
    paper cites for view synchronization): stuck replicas unicast sync
    requests to the next leader, which relays a broadcast once f+1 arrive.
    Linear pacemaker communication in the benign case, unlike LibraBFT's
    all-to-all timeout votes, but recovery depends on the next leader
    being reachable. *)

include Protocol_intf.S with type node = Chained_core.node
