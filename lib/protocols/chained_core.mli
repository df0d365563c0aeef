(** Chained HotStuff consensus core with pluggable pacemaker.

    HotStuff and LibraBFT share the identical safety machinery — pipelined
    blocks, quorum certificates, the three-chain commit rule — and differ
    only in the PaceMaker, the view-synchronization component (paper
    §III-B5/B6).  This module implements the shared core; the two protocol
    modules instantiate it with their pacemaker:

    - {!Naive_doubling} (HotStuff+NS): a local view-doubling synchronizer
      after Naor et al. — on expiry a node unilaterally advances one view
      and doubles its timeout, and the counter {e never resets}.  This is
      the source of the pathologies in the paper's Figs. 5, 6 and 9.
    - {!Timeout_certificates} (LibraBFT): on expiry a node broadcasts a
      timeout vote; 2f+1 such votes form a timeout certificate that moves
      every honest node to the next view within one message delay, and the
      doubling counter resets on progress — bounding recovery after GST.
    - {!Cogsworth} (Naor et al.'s leader-relayed synchronizer, the paper's
      citation for view synchronization): a stuck replica unicasts a sync
      request to the next leader; f+1 requests make the leader broadcast a
      relay that moves everyone — linear communication when leaders are
      honest, at the cost of one extra hop. *)

open Bftsim_net

type pacemaker = Naive_doubling | Timeout_certificates | Cogsworth

type Message.payload +=
  | Proposal of { block : Chain.block }
  | Vote of { view : int; digest : string }
  | Timeout_vote of { view : int }
  | Timeout_cert of { view : int }
  | Sync_request of { view : int }
  | Sync_advance of { view : int }
  | Catchup_req of { last_committed : string }
  | Catchup_resp of {
      blocks : Chain.block list;
      high_qc : Chain.qc;
      view : int;
      last_committed : string;
    }

type Bftsim_sim.Timer.payload += View_timer of { view : int }

type node

val create : pacemaker -> Context.t -> node

val on_start : node -> Context.t -> unit

val on_message : node -> Context.t -> Message.t -> unit

val on_timer : node -> Context.t -> Bftsim_sim.Timer.t -> unit

val on_restart : node -> Context.t -> unit
(** Crash-recovery entry point, called on a fresh node after a [restart@]
    chaos event: rehydrates the safety-critical state (last committed
    block, commit count, high/locked QC, highest voted view, pacemaker
    view) from the simulated WAL, broadcasts a [Catchup_req], and re-enters
    the persisted view.  Peers answer with the hash-linked block chain from
    the requester's commit frontier to their freshest certified block; the
    first internally-linked response re-commits the missed blocks in order
    and signals [Context.on_caught_up]. *)

val current_view : node -> int
(** The node's view, exposed for the view tracker (Fig. 9). *)

type naive_reset_policy = Context.naive_reset_policy =
  | Reset_on_commit
  | Never_reset
  | Per_view_number
(** When HotStuff+NS's view-doubling back-off resets (re-exported from
    {!Context}): on every local commit (default, and the configuration that
    reproduces the paper's shapes), never, or derived from the view number.
    Selected per run via [Config.naive_reset] (the [naive_reset] config
    key: [commit] (default) | [never] | [view]) and read from the node
    context — there is deliberately no process-global
    setter, so concurrent runs on different domains cannot race on it. *)
