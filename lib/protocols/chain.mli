(** Block chains and quorum certificates for chained HotStuff / LibraBFT.

    Chained HotStuff organizes proposals in a tree of blocks, each carrying a
    quorum certificate (QC) for its parent; a block commits once it heads a
    {e three-chain} of consecutive views.  This module is the shared block
    store; the pacemakers that differ between HotStuff+NS and LibraBFT live
    in the protocol modules. *)

type qc = { view : int; block : string }
(** A certificate that a quorum voted for [block] in [view].  Vote
    signatures are implicit: the simulator's network layer authenticates
    senders, and the vote tally enforces distinctness. *)

type block = {
  digest : string;
      (** Hex content digest; doubles as the decided value for payload-free
          blocks. *)
  view : int;
  parent : string;  (** Digest of the parent block. *)
  justify : qc;  (** QC for the parent carried by this block. *)
  proposer : int;
  payload : string;
      (** Workload batch riding this block — [""] (a synthetic, payload-free
          block) outside load runs.  When non-empty it is the decided value,
          so the load driver can match committed batches by name. *)
}

val genesis : block
(** The root of every chain, at view 0, self-certified. *)

val genesis_qc : qc

val make_block : ?payload:string -> view:int -> parent:block -> justify:qc -> proposer:int -> unit -> block
(** A new block extending [parent]; the digest commits to all fields.
    [payload] defaults to [""], in which case the digest preimage is
    byte-identical to historical payload-free blocks. *)

type store
(** A node's local block tree. *)

val create : unit -> store
(** A store containing only {!genesis}. *)

val add : store -> block -> unit
(** Idempotent insert. *)

val find : store -> string -> block option

val extends : store -> block -> ancestor:string -> bool
(** [extends store b ~ancestor] iff [ancestor] is on [b]'s parent path
    (including [b] itself). *)

val chain_between : store -> after:string -> upto:block -> block list
(** Blocks strictly newer than [after] on the path from genesis to [upto],
    oldest first.  Returns the full path from genesis if [after] is not an
    ancestor. *)

val three_chain_tail : store -> qc -> block option
(** Given a fresh QC certifying [b1], returns [b3] — the great-grandblock —
    when [b1], [b2 = parent b1], [b3 = parent b2] have consecutive views
    (the chained-HotStuff commit rule), otherwise [None]. *)

val pp_block : Format.formatter -> block -> unit
