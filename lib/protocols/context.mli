(** Execution context handed to every consensus node (paper §III-A3).

    A node never touches the event queue, network or controller directly; it
    acts through these capabilities.  [send]/[broadcast] route through the
    network and attacker modules; [set_timer] registers a time event;
    [decide] is the paper's [reportToSystem], delivering a consensus result
    to the controller, which computes the metrics. *)

open Bftsim_sim
open Bftsim_net

type naive_reset_policy = Reset_on_commit | Never_reset | Per_view_number
(** When HotStuff+NS's view-doubling back-off resets: on every local commit
    (the default, and the configuration that reproduces the paper's
    shapes), never, or derived from the view number.  Carried in the
    per-run configuration (and hence in every node's context) rather than a
    process-global knob so concurrent simulations on different domains
    cannot race on it. *)

val naive_reset_policy_of_string : string -> naive_reset_policy option
(** Parses ["commit"] | ["never"] | ["view"]. *)

val naive_reset_policy_to_string : naive_reset_policy -> string

type proposal = { value : string; size : int }
(** What a leader puts into a pre-prepare/proposal: an opaque value string
    and its estimated wire size in bytes.  Produced either by the protocol
    itself (the classic pre-agreed input) or by a workload batcher. *)

type t = {
  node_id : int;
  n : int;  (** Total number of nodes, including crashed/Byzantine ones. *)
  f : int;  (** Fault budget the protocol is configured to tolerate. *)
  lambda_ms : float;
      (** The protocol's {e assumed} network-delay bound / timeout parameter
          (the paper's lambda).  The real network may violate it. *)
  seed : int;  (** Key domain for simulated crypto (signatures, VRFs). *)
  input : string;  (** This node's input value for the consensus. *)
  naive_reset : naive_reset_policy;
      (** Pacemaker ablation knob consumed by {!Chained_core}; other
          protocols ignore it. *)
  rng : Rng.t;  (** Node-private randomness stream. *)
  now : unit -> Time.t;
  send_raw : dst:int -> tag:string -> size:int -> Message.payload -> unit;
  broadcast_raw : include_self:bool -> tag:string -> size:int -> Message.payload -> unit;
      (** One-to-all dissemination.  The controller implements it either as
          n point-to-point sends (the paper's model) or as epidemic gossip
          (the blockchain-style transport extension); protocols stay
          oblivious and use {!broadcast}. *)
  set_timer : delay_ms:float -> tag:string -> Timer.payload -> Timer.id;
  cancel_timer : Timer.id -> unit;
  decide : string -> unit;
      (** Report one decided value.  SMR protocols call it once per slot. *)
  leader_schedule : int array option;
      (** Per-view leader pinning (twins runs): for views inside the array,
          {!leader_round_robin} returns [leader_schedule.(view)] instead of
          the rotation; views beyond it fall back.  [None] everywhere else. *)
  request_proposal : slot:int -> width:int -> default:proposal -> (proposal -> bool) -> unit;
      (** A leader about to propose for [slot] asks for a payload covering
          [width] consensus slots ([pipeline_depth] for chained protocols,
          which pack their whole window into one block; [1] for slot-based
          windows like PBFT's, which request each slot separately).
          Without a workload layer the continuation runs {e immediately}
          with [default], so protocols that adopt the hook behave exactly
          as before; a workload layer wraps this field through
          [Controller.create]'s [?context] and may defer the callback
          until a request batch is cut.  The continuation must re-check
          its own staleness (view/leadership may have moved on by the time
          it fires) and return whether it used the proposal: on [false]
          the workload layer returns the batched requests to the mempool
          (re-queue on view change) instead of dropping them. *)
  pipeline_depth : int;
      (** How many consensus heights a leader may keep in flight at once;
          [1] (the default) reproduces the classic sequential behavior. *)
  durable : bool;
      (** [true] iff the run's chaos schedule contains a [restart@] event —
          the only case where persistence can pay off.  Protocols gate
          their {!field-persist} calls on it so runs without restarts skip
          the record formatting entirely and stay allocation-identical to
          the legacy path. *)
  persist : key:string -> string -> unit;
      (** Write one record (last-writer-wins per key) to the node's
          simulated write-ahead log.  The write occupies the node's
          sequential CPU for the configured [wal_ms] and the record
          survives a [restart@] chaos event, unlike everything else in the
          node's state. *)
  recall : key:string -> string option;
      (** Read back a WAL record after a restart; [None] if the key was
          never persisted. *)
  on_caught_up : unit -> unit;
      (** A restarted node signals that it has rejoined (rehydrated and
          caught up with peers); the controller turns the first signal
          after each restart into the [recovery.catchup_ms] histogram.
          No-op when the node was never restarted. *)
}

val send : t -> dst:int -> tag:string -> ?size:int -> Message.payload -> unit
(** Point-to-point send; [size] defaults to {!Message.default_size}. *)

val broadcast : t -> ?include_self:bool -> tag:string -> ?size:int -> Message.payload -> unit
(** Disseminates to every node through the configured transport.
    [include_self] (default [true]) also delivers a zero-delay local copy,
    which lets protocols treat their own votes uniformly with everyone
    else's. *)

val is_leader_round_robin : t -> view:int -> bool
(** [true] iff this node is the round-robin leader of [view]
    ([view mod n], or the [leader_schedule] override when pinned). *)

val leader_round_robin : t -> view:int -> int
