module Fault_schedule = Bftsim_attack.Fault_schedule

type t = {
  plan : Fault_schedule.t;
  absent : bool array;
  gone : bool array;
  crashes : bool;
  (* Stamps every alarm: an alarm armed before a restart must not fire into
     the fresh node. *)
  incarnation : int array;
  (* The simulated write-ahead log: the only node state that survives a
     [restart@]. *)
  wal : (string, string) Hashtbl.t array;
  (* Restart instant of a node that has not caught up yet. *)
  restarted_at : float option array;
  wal_ms : float;
  cpus : Cost_model.cpu array;
  now_ms : unit -> float;
}

let create (config : Config.t) ~cpus ~now_ms =
  let pn = Config.physical_n config in
  let plan = Fault_schedule.normalize config.Config.chaos in
  let absent = Array.init pn (fun node -> List.mem node config.Config.crashed) in
  {
    plan;
    absent;
    (* Nodes the plan fail-stops and never restarts can no more reach the
       decision target than config-crashed ones; recovered nodes stay
       counted and must catch up. *)
    gone =
      Array.init pn (fun node ->
          absent.(node) || Fault_schedule.crashed_at plan ~node ~at_ms:Float.infinity);
    crashes =
      List.exists (fun node -> Fault_schedule.ever_crashed plan ~node) (List.init pn Fun.id);
    incarnation = Array.make pn 0;
    wal = Array.init pn (fun _ -> Hashtbl.create 8);
    restarted_at = Array.make pn None;
    wal_ms = config.Config.wal_ms;
    cpus;
    now_ms;
  }

let plan t = t.plan

let absent t node = t.absent.(node)

let down t ~node ~at_ms = t.crashes && Fault_schedule.crashed_at t.plan ~node ~at_ms

let gone t node = t.gone.(node)

let ever_down t node = Fault_schedule.ever_crashed t.plan ~node

let crashes t = t.crashes

let durable t = Fault_schedule.restarts t.plan <> []

let incarnation t node = t.incarnation.(node)

type fate = Runs | Deferred of float | Lost

(* A down node's alarm is deferred to its restart instant (its timeout
   fires "on reboot"), or lost with the node if it never comes back. *)
let alarm t ~owner ~at_ms =
  if not (down t ~node:owner ~at_ms) then Runs
  else
    match Fault_schedule.next_recovery_after t.plan ~node:owner ~at_ms with
    | Some recover_ms -> Deferred recover_ms
    | None -> Lost

(* Bumping the incarnation retires every alarm the previous life armed
   (including its crash-deferred ones, which land at this very instant but
   behind the restart step). *)
let restart t node =
  t.incarnation.(node) <- t.incarnation.(node) + 1;
  t.restarted_at.(node) <- Some (t.now_ms ())

let caught_up t node =
  match t.restarted_at.(node) with
  | None -> None
  | Some restart_ms ->
    t.restarted_at.(node) <- None;
    Some (t.now_ms () -. restart_ms)

(* WAL writes occupy the node's sequential CPU, like signing. *)
let persist t node ~key value =
  Hashtbl.replace t.wal.(node) key value;
  if t.wal_ms > 0. then
    ignore (Cost_model.charge t.cpus.(node) ~now_ms:(t.now_ms ()) ~cost_ms:t.wal_ms : float)

let recall t node ~key = Hashtbl.find_opt t.wal.(node) key
