open Bftsim_sim
open Bftsim_net

type naive_reset_policy = Reset_on_commit | Never_reset | Per_view_number

let naive_reset_policy_of_string = function
  | "commit" -> Some Reset_on_commit
  | "never" -> Some Never_reset
  | "view" -> Some Per_view_number
  | _ -> None

let naive_reset_policy_to_string = function
  | Reset_on_commit -> "commit"
  | Never_reset -> "never"
  | Per_view_number -> "view"

type proposal = { value : string; size : int }

type t = {
  node_id : int;
  n : int;
  f : int;
  lambda_ms : float;
  seed : int;
  input : string;
  naive_reset : naive_reset_policy;
  rng : Rng.t;
  now : unit -> Time.t;
  send_raw : dst:int -> tag:string -> size:int -> Message.payload -> unit;
  broadcast_raw : include_self:bool -> tag:string -> size:int -> Message.payload -> unit;
  set_timer : delay_ms:float -> tag:string -> Timer.payload -> Timer.id;
  cancel_timer : Timer.id -> unit;
  decide : string -> unit;
  leader_schedule : int array option;
      (* Per-view leader pinning (twins runs): [leader_schedule.(view)]
         overrides the round-robin rotation for views inside the array;
         views beyond it fall back to rotation. [None] everywhere else. *)
  request_proposal : slot:int -> width:int -> default:proposal -> (proposal -> bool) -> unit;
      (* Workload hook: a leader about to propose asks for a payload
         covering [width] consensus slots (chained protocols pack their
         whole pipeline window into one block).  With no workload attached
         the continuation runs immediately with [default] (same behavior as
         before the hook existed); a workload layer may instead defer the
         callback while a batch accumulates.  The continuation returns
         whether it actually used the proposal — [false] means the leader's
         window moved on (view change) and the workload layer re-queues the
         batch instead of dropping it. *)
  pipeline_depth : int;
      (* How many consensus heights a leader may keep in flight at once;
         1 = sequential heights (the classic single-shot behavior). *)
  durable : bool;
      (* Whether this run models crash-restart faults: only then do
         protocols pay the cost of rendering persistence records, so
         runs without restarts stay allocation-identical to the legacy
         path. *)
  persist : key:string -> string -> unit;
      (* Append/overwrite one record in the node's simulated WAL.  The
         write occupies the node's sequential CPU for [wal_ms] (cost
         model), and the record survives a [restart@] chaos event. *)
  recall : key:string -> string option;
      (* Read back a WAL record; [None] if never persisted. *)
  on_caught_up : unit -> unit;
      (* A restarted node reports that it has finished catching up with
         its peers; the controller records recovery.catchup_ms.  No-op
         outside a restart. *)
}

let send t ~dst ~tag ?(size = Message.default_size) payload = t.send_raw ~dst ~tag ~size payload

let broadcast t ?(include_self = true) ~tag ?(size = Message.default_size) payload =
  t.broadcast_raw ~include_self ~tag ~size payload

let leader_round_robin t ~view =
  match t.leader_schedule with
  | Some schedule when view >= 0 && view < Array.length schedule -> schedule.(view)
  | Some _ | None -> ((view mod t.n) + t.n) mod t.n

let is_leader_round_robin t ~view = leader_round_robin t ~view = t.node_id
