open Bftsim_sim
open Bftsim_net

type pacemaker = Naive_doubling | Timeout_certificates | Cogsworth

type Message.payload +=
  | Proposal of { block : Chain.block }
  | Vote of { view : int; digest : string }
  | Timeout_vote of { view : int }
  | Timeout_cert of { view : int }
  | Sync_request of { view : int }
      (** Cogsworth: unicast plea to the leader of [view] to start it. *)
  | Sync_advance of { view : int }
      (** Cogsworth: the leader's relay moving everyone to [view]. *)
  | Catchup_req of { last_committed : string }
      (** A restarted replica asks its peers for the blocks it missed,
          naming the last block its WAL proves committed. *)
  | Catchup_resp of {
      blocks : Chain.block list;
      high_qc : Chain.qc;
      view : int;
      last_committed : string;
    }
      (** Peer's reply: the chain from the requester's block up to the
          peer's freshest certified block (hash-linked, oldest first),
          plus the peer's pacemaker position. *)

type Timer.payload += View_timer of { view : int }

(* A view must fit a proposal broadcast plus a vote flight, so the base
   timeout is twice the assumed delay bound. *)
let base_view_factor = 2.0

type node = {
  pacemaker : pacemaker;
  store : Chain.store;
  mutable cur_view : int;
  mutable high_qc : Chain.qc;
  mutable locked : Chain.qc;
  mutable last_committed : string;
  mutable timeouts : int;
  mutable timer : Timer.id option;
  votes : (int * string) Tally.t;
  timeout_votes : int Tally.t;
  sync_requests : int Tally.t;
  voted : (int, unit) Hashtbl.t;
  proposed : (int, unit) Hashtbl.t;
  qc_formed : (int, unit) Hashtbl.t;
  sent_timeout : (int, unit) Hashtbl.t;
  (* Proposals for views this node has not entered yet (e.g. the proposal
     raced ahead of the pacemaker's view-change message); re-examined on
     view entry. *)
  pending_proposals : (int, Chain.block) Hashtbl.t;
  mutable committed : int;
  (* Set between [on_restart] and the first applied catch-up response;
     volatile by design — a second restart restarts the catch-up. *)
  mutable recovering : bool;
}

let create pacemaker _ctx =
  {
    pacemaker;
    store = Chain.create ();
    cur_view = 0;
    high_qc = Chain.genesis_qc;
    locked = Chain.genesis_qc;
    last_committed = Chain.genesis.digest;
    timeouts = 0;
    timer = None;
    votes = Tally.create ();
    timeout_votes = Tally.create ();
    sync_requests = Tally.create ();
    voted = Hashtbl.create 64;
    proposed = Hashtbl.create 64;
    qc_formed = Hashtbl.create 64;
    sent_timeout = Hashtbl.create 64;
    pending_proposals = Hashtbl.create 64;
    committed = 0;
    recovering = false;
  }

(* Simulated-WAL records (written only when the run models restarts, see
   [Context.durable]): enough state to neither double-vote nor re-decide
   after losing everything volatile.  Blocks themselves are not persisted —
   the restarted replica re-fetches them from peers. *)
let wal_qc_to_string (qc : Chain.qc) = Printf.sprintf "%d %s" qc.Chain.view qc.Chain.block

let wal_qc_of_string s =
  match String.index_opt s ' ' with
  | Some i ->
    {
      Chain.view = int_of_string (String.sub s 0 i);
      block = String.sub s (i + 1) (String.length s - i - 1);
    }
  | None -> Chain.genesis_qc

let current_view t = t.cur_view

let leader ctx view = Context.leader_round_robin ctx ~view

(* HotStuff+NS uses the naive view-doubling synchronizer (Naor et al.): the
   view timeout doubles on every local timeout.  The per-run configuration
   (Config.naive_reset, surfaced as the naive_reset config key) selects
   when (if ever) the back-off resets — "commit" (default) resets on every
   local commit, "never" keeps growing, "view" derives the budget from the
   view number itself.  LibraBFT's pacemaker
   doubles per consecutive timeout and resets on any progress. *)
type naive_reset_policy = Context.naive_reset_policy =
  | Reset_on_commit
  | Never_reset
  | Per_view_number

let view_duration_ms t ctx =
  let exponent =
    match t.pacemaker with
    | Naive_doubling -> (
      match ctx.Context.naive_reset with
      | Per_view_number -> Stdlib.min t.cur_view 24
      | Reset_on_commit | Never_reset -> Stdlib.min t.timeouts 24)
    | Timeout_certificates | Cogsworth -> Stdlib.min t.timeouts 24
  in
  base_view_factor *. ctx.Context.lambda_ms *. (2. ** float_of_int exponent)

let restart_timer t ctx =
  Option.iter ctx.Context.cancel_timer t.timer;
  let id =
    ctx.Context.set_timer ~delay_ms:(view_duration_ms t ctx) ~tag:"view-timer"
      (View_timer { view = t.cur_view })
  in
  t.timer <- Some id

let propose t ctx =
  if not (Hashtbl.mem t.proposed t.cur_view) then
    match Chain.find t.store t.high_qc.Chain.block with
    | None -> ()
    | Some _ ->
      let view = t.cur_view in
      Hashtbl.replace t.proposed view ();
      (* Chained protocols are natively pipelined — one block per view, each
         carrying the QC for its parent — so the whole pipeline window rides
         a single block: ask the workload for a payload [width] batches
         wide.  Without a workload the continuation runs immediately with
         the synthetic default and the block is byte-identical to the
         pre-hook behavior. *)
      ctx.Context.request_proposal ~slot:view ~width:ctx.Context.pipeline_depth
        ~default:{ Context.value = ""; size = 512 }
        (fun (p : Context.proposal) ->
          (* A deferred batch may fire after the pacemaker moved on; the
             parent/justify are re-resolved at fire time, and a stale view
             returns [false] so the workload re-queues the batch. *)
          if t.cur_view = view && Context.is_leader_round_robin ctx ~view then
            match Chain.find t.store t.high_qc.Chain.block with
            | None -> false
            | Some parent ->
              let block =
                Chain.make_block ~payload:p.Context.value ~view ~parent ~justify:t.high_qc
                  ~proposer:ctx.Context.node_id ()
              in
              Chain.add t.store block;
              Context.broadcast ctx ~tag:"proposal" ~size:p.Context.size (Proposal { block });
              true
          else false)

(* Commit rule: a QC heading a three-chain of consecutive views commits the
   tail block and all its uncommitted ancestors, in chain order — each one
   is a decided value reported to the controller. *)
let try_commit t ctx qc =
  match Chain.three_chain_tail t.store qc with
  | None -> ()
  | Some b3 ->
    if
      (not (String.equal b3.Chain.digest t.last_committed))
      && Chain.extends t.store b3 ~ancestor:t.last_committed
    then begin
      let newly = Chain.chain_between t.store ~after:t.last_committed ~upto:b3 in
      List.iter
        (fun (b : Chain.block) ->
          t.committed <- t.committed + 1;
          (* A workload batch decides by its batch name so the driver can
             match commits; synthetic blocks keep deciding their digest. *)
          ctx.Context.decide (if b.Chain.payload = "" then b.Chain.digest else b.Chain.payload))
        newly;
      t.last_committed <- b3.Chain.digest;
      if ctx.Context.durable then begin
        ctx.Context.persist ~key:"lc" t.last_committed;
        ctx.Context.persist ~key:"n" (string_of_int t.committed)
      end;
      if t.pacemaker = Naive_doubling && ctx.Context.naive_reset = Reset_on_commit then
        t.timeouts <- 0
    end

let process_qc t ctx (qc : Chain.qc) =
  if qc.view > t.high_qc.Chain.view then begin
    t.high_qc <- qc;
    if ctx.Context.durable then ctx.Context.persist ~key:"hq" (wal_qc_to_string qc)
  end;
  (match Chain.find t.store qc.block with
  | Some b1 ->
    if b1.justify.view > t.locked.Chain.view then begin
      t.locked <- b1.justify;
      if ctx.Context.durable then ctx.Context.persist ~key:"lk" (wal_qc_to_string b1.justify)
    end
  | None -> ());
  try_commit t ctx qc

let vote_for t ctx (b : Chain.block) =
  Hashtbl.replace t.voted b.view ();
  (* Votes happen only in the current view and views never rewind, so the
     highest voted view is the only one a restarted replica could be asked
     to re-vote in — persisting it is enough to rule out equivocation. *)
  if ctx.Context.durable then ctx.Context.persist ~key:"voted" (string_of_int b.view);
  Context.send ctx
    ~dst:(leader ctx (b.view + 1))
    ~tag:"vote"
    (Vote { view = b.view; digest = b.digest })

let safe_to_vote t (b : Chain.block) =
  b.justify.view > t.locked.Chain.view || Chain.extends t.store b ~ancestor:t.locked.Chain.block

(* On entering a view, act on a proposal that arrived before we did. *)
let vote_pending t ctx =
  match Hashtbl.find_opt t.pending_proposals t.cur_view with
  | Some b when (not (Hashtbl.mem t.voted b.view)) && safe_to_vote t b -> vote_for t ctx b
  | Some _ | None -> ()

(* [fresh] marks entry through protocol progress (a QC or TC) rather than a
   local timeout; LibraBFT's pacemaker resets its back-off on progress,
   the naive synchronizer never does. *)
let enter_view t ctx ~fresh view =
  if view > t.cur_view then begin
    t.cur_view <- view;
    if ctx.Context.durable then ctx.Context.persist ~key:"v" (string_of_int view);
    if fresh && (t.pacemaker = Timeout_certificates || t.pacemaker = Cogsworth) then
      t.timeouts <- 0;
    restart_timer t ctx;
    if leader ctx view = ctx.Context.node_id then propose t ctx;
    vote_pending t ctx
  end

let handle_proposal t ctx (msg : Message.t) (b : Chain.block) =
  if msg.src = leader ctx b.view then begin
    Chain.add t.store b;
    if b.view > t.cur_view then Hashtbl.replace t.pending_proposals b.view b;
    process_qc t ctx b.justify;
    (* Optimistic responsiveness: a proposal carrying a QC for the directly
       preceding view proves that view succeeded, so jump to the proposal's
       view without waiting for the timer. *)
    if b.view > t.cur_view && b.justify.view = b.view - 1 then enter_view t ctx ~fresh:true b.view;
    if b.view = t.cur_view && (not (Hashtbl.mem t.voted b.view)) && safe_to_vote t b then
      vote_for t ctx b
  end

let handle_vote t ctx (msg : Message.t) ~view ~digest =
  (* Staleness: the leader of view v+1 aggregates votes of view v only
     while its own view clock has not moved past v+1; later votes belong to
     a view it is no longer responsible for.  Under the naive synchronizer
     this is what turns clock divergence into failed views (Figs. 5, 9) —
     the timeout-certificate pacemaker keeps clocks close enough that the
     rule rarely bites. *)
  if leader ctx (view + 1) = ctx.Context.node_id && t.cur_view <= view + 1 then begin
    let count = Tally.add t.votes (view, digest) ~voter:msg.src in
    if count >= Quorum.quorum ctx.Context.n && not (Hashtbl.mem t.qc_formed view) then begin
      Hashtbl.replace t.qc_formed view ();
      let qc = { Chain.view; block = digest } in
      process_qc t ctx qc;
      enter_view t ctx ~fresh:true (view + 1);
      (* Already in a later view (clock ran ahead): still propose on the
         freshest QC if leadership matches. *)
      if leader ctx t.cur_view = ctx.Context.node_id then propose t ctx
    end
  end

let broadcast_timeout ?(force = false) t ctx view =
  if force || not (Hashtbl.mem t.sent_timeout view) then begin
    Hashtbl.replace t.sent_timeout view ();
    Context.broadcast ctx ~tag:"timeout-vote" (Timeout_vote { view })
  end

let handle_timeout_vote t ctx (msg : Message.t) ~view =
  if t.pacemaker = Timeout_certificates then begin
    let count = Tally.add t.timeout_votes view ~voter:msg.src in
    if view >= t.cur_view then begin
      (* f+1 timeouts prove an honest node is stuck: join the timeout. *)
      if count >= Quorum.one_honest ctx.Context.n then broadcast_timeout t ctx view;
      if Tally.count t.timeout_votes view >= Quorum.quorum ctx.Context.n then begin
        Context.broadcast ctx ~tag:"timeout-cert" (Timeout_cert { view });
        enter_view t ctx ~fresh:true (view + 1)
      end
    end
  end

let on_start t ctx = enter_view t ctx ~fresh:false 1

(* --- Crash-recovery: WAL rehydration + block transfer ------------------- *)

(* A peer answers a catch-up request with the hash-linked chain from the
   requester's last committed block up to the peer's freshest certified
   block — not just its own commit frontier, because the requester also
   needs the uncommitted two-chain head to resume committing. *)
let handle_catchup_req t ctx (msg : Message.t) ~last_committed =
  if msg.Message.src <> ctx.Context.node_id then begin
    let tip =
      match Chain.find t.store t.high_qc.Chain.block with
      | Some b -> Some b
      | None -> Chain.find t.store t.last_committed
    in
    match tip with
    | None -> ()
    | Some tip ->
      let blocks = Chain.chain_between t.store ~after:last_committed ~upto:tip in
      Context.send ctx ~dst:msg.Message.src ~tag:"catchup-resp"
        ~size:(256 + (512 * List.length blocks))
        (Catchup_resp
           { blocks; high_qc = t.high_qc; view = t.cur_view; last_committed = t.last_committed })
  end

(* Trust model: a response is accepted iff its blocks are internally
   hash-linked (each block names its predecessor's digest and carries its
   QC).  Digests commit to all block fields, so a single honest response
   suffices; a malformed one is discarded whole.  Only blocks extending the
   replica's own committed prefix up to the *peer's* committed frontier are
   decided — everything else just fills the store. *)
let apply_catchup t ctx ~blocks ~(high_qc : Chain.qc) ~view ~last_committed =
  let rec linked = function
    | [] | [ _ ] -> true
    | (a : Chain.block) :: (b : Chain.block) :: rest ->
      String.equal b.Chain.parent a.Chain.digest
      && String.equal b.Chain.justify.Chain.block a.Chain.digest
      && linked (b :: rest)
  in
  if linked blocks then begin
    List.iter (Chain.add t.store) blocks;
    (match Chain.find t.store last_committed with
    | Some peer_tip
      when (not (String.equal peer_tip.Chain.digest t.last_committed))
           && Chain.extends t.store peer_tip ~ancestor:t.last_committed ->
      let newly = Chain.chain_between t.store ~after:t.last_committed ~upto:peer_tip in
      List.iter
        (fun (b : Chain.block) ->
          t.committed <- t.committed + 1;
          ctx.Context.decide (if b.Chain.payload = "" then b.Chain.digest else b.Chain.payload))
        newly;
      t.last_committed <- peer_tip.Chain.digest;
      if ctx.Context.durable then begin
        ctx.Context.persist ~key:"lc" t.last_committed;
        ctx.Context.persist ~key:"n" (string_of_int t.committed)
      end
    | Some _ | None -> ());
    if high_qc.Chain.view > t.high_qc.Chain.view then begin
      t.high_qc <- high_qc;
      if ctx.Context.durable then ctx.Context.persist ~key:"hq" (wal_qc_to_string high_qc)
    end;
    if view > t.cur_view then enter_view t ctx ~fresh:true view;
    if t.recovering then begin
      t.recovering <- false;
      ctx.Context.on_caught_up ()
    end
  end

let on_restart t ctx =
  t.recovering <- true;
  if ctx.Context.durable then begin
    (match ctx.Context.recall ~key:"lc" with Some d -> t.last_committed <- d | None -> ());
    (match ctx.Context.recall ~key:"n" with
    | Some s -> t.committed <- int_of_string s
    | None -> ());
    (match ctx.Context.recall ~key:"hq" with
    | Some s -> t.high_qc <- wal_qc_of_string s
    | None -> ());
    (match ctx.Context.recall ~key:"lk" with
    | Some s -> t.locked <- wal_qc_of_string s
    | None -> ());
    match ctx.Context.recall ~key:"voted" with
    | Some s -> Hashtbl.replace t.voted (int_of_string s) ()
    | None -> ()
  end;
  let resume_view =
    match if ctx.Context.durable then ctx.Context.recall ~key:"v" else None with
    | Some s -> Stdlib.max 1 (int_of_string s)
    | None -> 1
  in
  Context.broadcast ctx ~include_self:false ~tag:"catchup-req"
    (Catchup_req { last_committed = t.last_committed });
  enter_view t ctx ~fresh:false resume_view

(* Cogsworth view synchronization (Naor et al.): a stuck replica asks the
   *next leader* to start the next view (linear communication); the leader
   relays once it holds f+1 requests, which proves an honest replica is
   stuck and lets every honest replica jump within one message delay. *)
let handle_sync_request t ctx (msg : Message.t) ~view =
  if t.pacemaker = Cogsworth && leader ctx view = ctx.Context.node_id then begin
    let count = Tally.add t.sync_requests view ~voter:msg.src in
    if count >= Quorum.one_honest ctx.Context.n && view > t.cur_view then begin
      Context.broadcast ctx ~tag:"sync-advance" (Sync_advance { view });
      enter_view t ctx ~fresh:true view
    end
  end

let on_message t ctx (msg : Message.t) =
  match msg.payload with
  | Proposal { block } -> handle_proposal t ctx msg block
  | Vote { view; digest } -> handle_vote t ctx msg ~view ~digest
  | Timeout_vote { view } -> handle_timeout_vote t ctx msg ~view
  | Timeout_cert { view } ->
    if t.pacemaker = Timeout_certificates && view >= t.cur_view then
      enter_view t ctx ~fresh:true (view + 1)
  | Sync_request { view } -> handle_sync_request t ctx msg ~view
  | Sync_advance { view } ->
    if t.pacemaker = Cogsworth && msg.src = leader ctx view then enter_view t ctx ~fresh:true view
  | Catchup_req { last_committed } -> handle_catchup_req t ctx msg ~last_committed
  | Catchup_resp { blocks; high_qc; view; last_committed } ->
    apply_catchup t ctx ~blocks ~high_qc ~view ~last_committed
  | _ -> ()

let on_timer t ctx (timer : Timer.t) =
  match timer.payload with
  | View_timer { view } when view = t.cur_view -> (
    t.timeouts <- t.timeouts + 1;
    match t.pacemaker with
    | Naive_doubling ->
      (* Unilateral advance with doubled duration; never resets. *)
      enter_view t ctx ~fresh:false (t.cur_view + 1)
    | Timeout_certificates | Cogsworth ->
      (* Stay in the view, (re-)signal the pacemaker and re-arm at the base
         cadence so the signal keeps flowing until the view can change —
         this is what bounds recovery once a partition heals. *)
      (match t.pacemaker with
      | Timeout_certificates -> broadcast_timeout ~force:true t ctx t.cur_view
      | Naive_doubling | Cogsworth ->
        (* Cogsworth: ask a later leader to start its view; consecutive
           timeouts escalate the target so a stretch of crashed leaders is
           skipped (the k-th timeout asks leader(v + k)). *)
        let target = t.cur_view + Stdlib.max 1 t.timeouts in
        Context.send ctx ~dst:(leader ctx target) ~tag:"sync-request"
          (Sync_request { view = target }));
      Option.iter ctx.Context.cancel_timer t.timer;
      let id =
        ctx.Context.set_timer
          ~delay_ms:(base_view_factor *. ctx.Context.lambda_ms)
          ~tag:"view-timer"
          (View_timer { view = t.cur_view })
      in
      t.timer <- Some id)
  | _ -> ()

let () =
  Message.register_printer (function
    | Proposal { block } -> Some (Format.asprintf "Proposal(%a)" Chain.pp_block block)
    | Vote { view; digest } -> Some (Printf.sprintf "Vote(v=%d,%s)" view digest)
    | Timeout_vote { view } -> Some (Printf.sprintf "TimeoutVote(v=%d)" view)
    | Timeout_cert { view } -> Some (Printf.sprintf "TC(v=%d)" view)
    | Sync_request { view } -> Some (Printf.sprintf "SyncReq(v=%d)" view)
    | Sync_advance { view } -> Some (Printf.sprintf "SyncAdv(v=%d)" view)
    | Catchup_req { last_committed } -> Some (Printf.sprintf "CatchupReq(%s)" last_committed)
    | Catchup_resp { blocks; view; _ } ->
      Some (Printf.sprintf "CatchupResp(%d blocks,v=%d)" (List.length blocks) view)
    | _ -> None)
