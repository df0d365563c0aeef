(* Tests for the protocol substrate (quorum arithmetic, vote tallies, block
   chains) and per-protocol behaviour, driven through the controller with
   small deterministic configurations. *)

module P = Bftsim_protocols
module Core = Bftsim_core
module Net = Bftsim_net

(* --- Quorum --- *)

let test_quorum_thresholds () =
  Alcotest.(check int) "f(4)" 1 (P.Quorum.max_faulty 4);
  Alcotest.(check int) "f(16)" 5 (P.Quorum.max_faulty 16);
  Alcotest.(check int) "quorum(4)" 3 (P.Quorum.quorum 4);
  Alcotest.(check int) "quorum(16)" 11 (P.Quorum.quorum 16);
  Alcotest.(check int) "one_honest(16)" 6 (P.Quorum.one_honest 16);
  Alcotest.(check int) "supermajority(16)" 11 (P.Quorum.supermajority 16)

let test_quorum_intersection () =
  (* Two quorums always share an honest node: 2*quorum - n > f. *)
  List.iter
    (fun n ->
      let f = P.Quorum.max_faulty n in
      let q = P.Quorum.quorum n in
      Alcotest.(check bool)
        (Printf.sprintf "intersection at n=%d" n)
        true
        ((2 * q) - n > f))
    [ 4; 7; 10; 16; 31; 100 ]

let test_quorum_check () =
  P.Quorum.check ~n:4 ~f:1;
  (match P.Quorum.check ~n:3 ~f:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n = 3f accepted");
  match P.Quorum.check ~n:4 ~f:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative f accepted"

(* --- Tally --- *)

let test_tally_dedup () =
  let t = P.Tally.create () in
  Alcotest.(check int) "first vote" 1 (P.Tally.add t "k" ~voter:1);
  Alcotest.(check int) "revote ignored" 1 (P.Tally.add t "k" ~voter:1);
  Alcotest.(check int) "second voter" 2 (P.Tally.add t "k" ~voter:2);
  Alcotest.(check int) "count" 2 (P.Tally.count t "k");
  Alcotest.(check int) "other key empty" 0 (P.Tally.count t "other")

let test_tally_voters () =
  let t = P.Tally.create () in
  List.iter (fun v -> ignore (P.Tally.add t "k" ~voter:v)) [ 5; 3; 9; 3 ];
  Alcotest.(check (list int)) "sorted distinct voters" [ 3; 5; 9 ] (P.Tally.voters t "k");
  Alcotest.(check bool) "has_voted" true (P.Tally.has_voted t "k" ~voter:9);
  Alcotest.(check bool) "has_voted negative" false (P.Tally.has_voted t "k" ~voter:1)

let test_tally_max_count () =
  let t = P.Tally.create () in
  ignore (P.Tally.add t "a" ~voter:1);
  ignore (P.Tally.add t "b" ~voter:1);
  ignore (P.Tally.add t "b" ~voter:2);
  Alcotest.(check (option (pair string int))) "max" (Some ("b", 2)) (P.Tally.max_count t);
  P.Tally.clear t;
  Alcotest.(check (option (pair string int))) "cleared" None (P.Tally.max_count t)

let prop_tally_counts_distinct_voters =
  QCheck.Test.make ~name:"tally count equals distinct voters" ~count:200
    QCheck.(list (pair (int_range 0 5) (int_range 0 20)))
    (fun votes ->
      let t = P.Tally.create () in
      List.iter (fun (key, voter) -> ignore (P.Tally.add t key ~voter)) votes;
      List.for_all
        (fun key ->
          let expected =
            List.sort_uniq compare (List.filter_map (fun (k, v) -> if k = key then Some v else None) votes)
          in
          P.Tally.count t key = List.length expected)
        (List.sort_uniq compare (List.map fst votes)))

(* Model check: random scripts over at most 4 keys and voters in [0, 600),
   with frequent re-votes, run against a reference built on per-key
   hashtables.  Every observation must match exactly: counts, membership,
   ascending voters, keys newest first, and max_count's first-seen
   tie-break. *)
type tally_op =
  | T_add of int * int
  | T_count of int
  | T_has_voted of int * int
  | T_voters of int
  | T_keys
  | T_max_count
  | T_clear

type tally_obs =
  | O_int of int
  | O_bool of bool
  | O_list of int list
  | O_max of (int * int) option
  | O_unit

module Tally_ref = struct
  type t = { table : (int, (int, unit) Hashtbl.t) Hashtbl.t; mutable order : int list }

  let create () = { table = Hashtbl.create 8; order = [] }

  let set t key =
    match Hashtbl.find_opt t.table key with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.replace t.table key s;
      t.order <- key :: t.order;
      s

  let count t key = match Hashtbl.find_opt t.table key with None -> 0 | Some s -> Hashtbl.length s

  let apply t = function
    | T_add (key, voter) ->
      let s = set t key in
      Hashtbl.replace s voter ();
      O_int (Hashtbl.length s)
    | T_count key -> O_int (count t key)
    | T_has_voted (key, voter) ->
      O_bool (match Hashtbl.find_opt t.table key with None -> false | Some s -> Hashtbl.mem s voter)
    | T_voters key ->
      O_list
        (match Hashtbl.find_opt t.table key with
        | None -> []
        | Some s -> List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) s []))
    | T_keys -> O_list t.order
    | T_max_count ->
      O_max
        (List.fold_left
           (fun best key ->
             let c = count t key in
             match best with Some (_, bc) when bc >= c -> best | _ -> Some (key, c))
           None (List.rev t.order))
    | T_clear ->
      Hashtbl.reset t.table;
      t.order <- [];
      O_unit
end

let tally_apply t = function
  | T_add (key, voter) -> O_int (P.Tally.add t key ~voter)
  | T_count key -> O_int (P.Tally.count t key)
  | T_has_voted (key, voter) -> O_bool (P.Tally.has_voted t key ~voter)
  | T_voters key -> O_list (P.Tally.voters t key)
  | T_keys -> O_list (P.Tally.keys t)
  | T_max_count -> O_max (P.Tally.max_count t)
  | T_clear ->
    P.Tally.clear t;
    O_unit

let tally_op_arb =
  let open QCheck.Gen in
  let key = int_range 0 3 in
  (* A small pool of low ids makes re-votes common; the wide range reaches
     past a 512-bit set. *)
  let voter = frequency [ (2, int_range 0 7); (3, int_range 0 599) ] in
  let op =
    frequency
      [
        (8, map2 (fun k v -> T_add (k, v)) key voter);
        (2, map (fun k -> T_count k) key);
        (2, map2 (fun k v -> T_has_voted (k, v)) key voter);
        (1, map (fun k -> T_voters k) key);
        (1, return T_keys);
        (1, return T_max_count);
        (1, return T_clear);
      ]
  in
  let print = function
    | T_add (k, v) -> Printf.sprintf "add %d %d" k v
    | T_count k -> Printf.sprintf "count %d" k
    | T_has_voted (k, v) -> Printf.sprintf "has_voted %d %d" k v
    | T_voters k -> Printf.sprintf "voters %d" k
    | T_keys -> "keys"
    | T_max_count -> "max_count"
    | T_clear -> "clear"
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print ops))
    (list_size (int_range 0 300) op)

let prop_tally_matches_model =
  QCheck.Test.make ~name:"tally matches a hashtable reference" ~count:300 tally_op_arb
    (fun ops ->
      let t = P.Tally.create () and r = Tally_ref.create () in
      List.for_all (fun op -> tally_apply t op = Tally_ref.apply r op) ops)

let test_tally_rejects_negative_voter () =
  let t = P.Tally.create () in
  ignore (P.Tally.add t "k" ~voter:0);
  Alcotest.check_raises "negative voter" (Invalid_argument "Tally.add: negative voter") (fun () ->
      ignore (P.Tally.add t "k" ~voter:(-1)));
  Alcotest.(check int) "count unchanged" 1 (P.Tally.count t "k");
  Alcotest.(check bool) "negative never voted" false (P.Tally.has_voted t "k" ~voter:(-1));
  Alcotest.(check (list string)) "no key created" [ "k" ] (P.Tally.keys t)

(* --- Chain --- *)

let qc view block = { P.Chain.view; block }

let test_chain_genesis () =
  let store = P.Chain.create () in
  Alcotest.(check bool) "genesis present" true
    (P.Chain.find store P.Chain.genesis.digest <> None);
  Alcotest.(check int) "genesis view" 0 P.Chain.genesis.view

let extend store parent view =
  let b = P.Chain.make_block ~view ~parent ~justify:(qc parent.P.Chain.view parent.digest) ~proposer:0 () in
  P.Chain.add store b;
  b

let test_chain_extends () =
  let store = P.Chain.create () in
  let b1 = extend store P.Chain.genesis 1 in
  let b2 = extend store b1 2 in
  let b3 = extend store b2 3 in
  Alcotest.(check bool) "b3 extends genesis" true
    (P.Chain.extends store b3 ~ancestor:P.Chain.genesis.digest);
  Alcotest.(check bool) "b3 extends b1" true (P.Chain.extends store b3 ~ancestor:b1.digest);
  Alcotest.(check bool) "b1 does not extend b3" false (P.Chain.extends store b1 ~ancestor:b3.digest)

let test_chain_between () =
  let store = P.Chain.create () in
  let b1 = extend store P.Chain.genesis 1 in
  let b2 = extend store b1 2 in
  let b3 = extend store b2 3 in
  let path = P.Chain.chain_between store ~after:P.Chain.genesis.digest ~upto:b3 in
  Alcotest.(check (list string))
    "oldest-first path"
    [ b1.digest; b2.digest; b3.digest ]
    (List.map (fun (b : P.Chain.block) -> b.digest) path);
  let partial = P.Chain.chain_between store ~after:b1.digest ~upto:b3 in
  Alcotest.(check int) "partial path" 2 (List.length partial)

let test_chain_three_chain_commit () =
  let store = P.Chain.create () in
  let b1 = extend store P.Chain.genesis 1 in
  let b2 = extend store b1 2 in
  let b3 = extend store b2 3 in
  (match P.Chain.three_chain_tail store (qc 3 b3.digest) with
  | Some tail -> Alcotest.(check string) "commits b1" b1.digest tail.P.Chain.digest
  | None -> Alcotest.fail "consecutive three-chain not detected");
  (* A gap in views must not commit. *)
  let b5 = P.Chain.make_block ~view:5 ~parent:b3 ~justify:(qc 3 b3.digest) ~proposer:0 () in
  P.Chain.add store b5;
  (match P.Chain.three_chain_tail store (qc 5 b5.digest) with
  | None -> ()
  | Some _ -> Alcotest.fail "gapped chain committed")

let test_chain_digest_uniqueness () =
  let a = P.Chain.make_block ~view:1 ~parent:P.Chain.genesis ~justify:P.Chain.genesis_qc ~proposer:0 () in
  let b = P.Chain.make_block ~view:1 ~parent:P.Chain.genesis ~justify:P.Chain.genesis_qc ~proposer:1 () in
  Alcotest.(check bool) "proposer distinguishes digests" true (a.digest <> b.digest)

(* --- Protocol behaviour through the controller --- *)

let run ?(n = 16) ?(seed = 11) ?(lambda = 1000.) ?crashed ?attack ?target ?inputs protocol =
  let config =
    Core.Config.make protocol ~n ~lambda_ms:lambda ~seed
      ~delay:(Net.Delay_model.normal ~mu:100. ~sigma:20.)
      ?crashed ?attack ?decisions_target:target ?inputs
  in
  Core.Controller.run config

let check_live_and_safe name (r : Core.Controller.result) =
  Alcotest.(check bool) (name ^ " reaches target") true (r.outcome = Core.Controller.Reached_target);
  Alcotest.(check bool) (name ^ " agreement") true r.safety_ok

let test_all_protocols_decide () =
  List.iter
    (fun (module Pr : P.Protocol_intf.S) -> check_live_and_safe Pr.name (run Pr.name))
    (P.Registry.all ())

let test_all_protocols_decide_n4 () =
  (* The classic deployment size n = 4, f = 1. *)
  List.iter
    (fun (module Pr : P.Protocol_intf.S) -> check_live_and_safe (Pr.name ^ " n=4") (run ~n:4 Pr.name))
    (P.Registry.all ())

let test_registry () =
  Alcotest.(check int) "eleven built-in protocols (8 paper + 3 extensions)" 11
    (List.length (P.Registry.all ()));
  Alcotest.(check bool) "finds pbft" true (P.Registry.find "pbft" <> None);
  Alcotest.(check bool) "unknown is None" true (P.Registry.find "raft" = None);
  match P.Registry.find_exn "no-such" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "find_exn accepted unknown name"

let test_pbft_decides_proposers_value () =
  let r = run "pbft" in
  List.iter
    (fun (_, values) ->
      match values with
      | [ v ] -> Alcotest.(check string) "primary 0 proposed" "v0/slot1" v
      | other -> Alcotest.failf "expected one decision, got %d" (List.length other))
    r.decisions

let test_pbft_view_change_on_crashed_primary () =
  (* Node 0 is the view-0 primary; crashing it forces a view change, and the
     next primary's value is decided instead. *)
  let r = run "pbft" ~crashed:[ 0 ] in
  check_live_and_safe "pbft under crashed primary" r;
  let _, values = List.find (fun (node, _) -> node = 1) r.decisions in
  Alcotest.(check string) "primary 1 took over" "v1/slot1" (List.hd values)

let test_pbft_multi_slot () =
  let r = run "pbft" ~target:5 in
  check_live_and_safe "pbft 5 slots" r;
  let _, values = List.find (fun (node, _) -> node = 1) r.decisions in
  Alcotest.(check int) "five decisions" 5 (List.length values);
  Alcotest.(check (list string))
    "slots in order"
    [ "v0/slot1"; "v0/slot2"; "v0/slot3"; "v0/slot4"; "v0/slot5" ]
    values

let test_hotstuff_pipelining_efficiency () =
  (* Chained HotStuff amortizes: 20 decisions should take far less than 20
     times the first decision. *)
  let r1 = run "hotstuff-ns" ~target:1 in
  let r20 = run "hotstuff-ns" ~target:20 in
  check_live_and_safe "hotstuff 20 decisions" r20;
  Alcotest.(check bool) "pipelining amortizes" true (r20.time_ms < 8. *. r1.time_ms)

let test_hotstuff_commit_prefix_consistency () =
  let r = run "hotstuff-ns" ~target:10 in
  (* All nodes' decision sequences must be prefixes of the longest one. *)
  let longest =
    List.fold_left (fun acc (_, values) -> if List.length values > List.length acc then values else acc)
      [] r.decisions
  in
  List.iter
    (fun (node, values) ->
      List.iteri
        (fun k v ->
          Alcotest.(check string) (Printf.sprintf "node %d decision %d" node k) (List.nth longest k) v)
        values)
    r.decisions

let test_librabft_recovers_from_crashed_leaders () =
  let r = run "librabft" ~crashed:[ 1; 2 ] ~target:5 in
  check_live_and_safe "librabft with crashed leaders" r

let test_chained_timeout_reset_difference () =
  (* Under repeated leader failures the naive synchronizer accumulates
     back-off that LibraBFT's pacemaker resolves with timeout certificates:
     LibraBFT must finish significantly earlier. *)
  let crashed = [ 13; 14; 15 ] in
  let hot = run "hotstuff-ns" ~crashed ~target:10 ~seed:3 in
  let libra = run "librabft" ~crashed ~target:10 ~seed:3 in
  Alcotest.(check bool) "libra reaches target" true (libra.outcome = Core.Controller.Reached_target);
  Alcotest.(check bool) "libra beats hotstuff-ns under churn" true (libra.time_ms < hot.time_ms)

let test_algorand_partition_safety () =
  (* During the partition neither side may certify a value: safety without
     liveness, then recovery. *)
  let r =
    run "algorand"
      ~attack:(Core.Config.Partition { first_size = 8; start_ms = 0.; heal_ms = 8000.; drop = true })
  in
  check_live_and_safe "algorand across partition" r;
  Alcotest.(check bool) "no decision before heal" true (r.time_ms >= 8000.)

let test_async_ba_binary_validity () =
  (* Unanimous inputs must decide that very value (validity). *)
  let r = run "async-ba" ~inputs:(Core.Config.Same "1") in
  check_live_and_safe "async-ba unanimous" r;
  List.iter
    (fun (_, values) -> List.iter (fun v -> Alcotest.(check string) "decides input bit" "1" v) values)
    r.decisions

let test_async_ba_mixed_inputs_agree () =
  for seed = 1 to 5 do
    let r = run "async-ba" ~seed ~inputs:Core.Config.Random_binary in
    check_live_and_safe (Printf.sprintf "async-ba seed %d" seed) r;
    let decided = List.concat_map snd r.decisions in
    let distinct = List.sort_uniq compare decided in
    Alcotest.(check int) "single decided bit" 1 (List.length distinct);
    Alcotest.(check bool) "bit is 0 or 1" true (List.mem (List.hd distinct) [ "0"; "1" ])
  done

let test_add_variants_validity () =
  (* With unanimous inputs every ADD+ variant must decide that value. *)
  List.iter
    (fun name ->
      let r = run name ~inputs:(Core.Config.Same "agreed") in
      check_live_and_safe (name ^ " unanimous") r;
      List.iter
        (fun (_, values) ->
          List.iter (fun v -> Alcotest.(check string) (name ^ " validity") "agreed" v) values)
        r.decisions)
    [ "add-v1"; "add-v2"; "add-v3" ]

let test_add_v1_static_attack_costs_f_iterations () =
  let plain = run "add-v1" ~seed:21 in
  let attacked = run "add-v1" ~seed:21 ~attack:(Core.Config.Add_static { f = 3 }) in
  check_live_and_safe "add-v1 static" attacked;
  (* Three wasted iterations of 3 slots each at lambda = 1000. *)
  Alcotest.(check bool) "3 extra iterations" true (attacked.time_ms -. plain.time_ms >= 8000.)

let test_add_v3_shrugs_off_adaptive () =
  let plain = run "add-v3" ~seed:22 in
  let attacked =
    run "add-v3" ~seed:22 ~attack:(Core.Config.Add_rushing_adaptive { budget = Some 5 })
  in
  check_live_and_safe "add-v3 adaptive" attacked;
  Alcotest.(check bool) "attack gains nothing" true
    (attacked.time_ms -. plain.time_ms < 5000.)

let test_add_v2_suffers_adaptive () =
  let plain = run "add-v2" ~seed:23 in
  let attacked =
    run "add-v2" ~seed:23 ~attack:(Core.Config.Add_rushing_adaptive { budget = Some 4 })
  in
  check_live_and_safe "add-v2 adaptive" attacked;
  Alcotest.(check bool) "4 wasted iterations" true (attacked.time_ms -. plain.time_ms >= 12000.)

let test_view_accessor_progresses () =
  (* Protocol_intf.view must reflect logical progress for the tracker: it
     never decreases, and for protocols that consume views/periods in the
     happy path it must actually advance.  (PBFT's view legitimately stays
     at 0 when the primary is honest; its progress lives in slots.) *)
  List.iter
    (fun (name, must_advance) ->
      let config =
        Core.Config.make name ~n:16 ~seed:2
          ~delay:(Net.Delay_model.normal ~mu:100. ~sigma:20.)
          ~view_sample_ms:200.
      in
      let r = Core.Controller.run config in
      if r.view_samples = [] then Alcotest.fail (name ^ ": no view samples");
      ignore
        (List.fold_left
           (fun prev (_, views) ->
             Array.iteri
               (fun i v ->
                 if v < prev.(i) then Alcotest.failf "%s: node %d view went backwards" name i)
               views;
             views)
           (Array.make 16 0) r.view_samples);
      if must_advance then begin
        let _, last = List.nth r.view_samples (List.length r.view_samples - 1) in
        Alcotest.(check bool) (name ^ " views advanced") true (Array.exists (fun v -> v > 0) last)
      end)
    [
      ("pbft", false); ("hotstuff-ns", true); ("librabft", true); ("algorand", true);
      ("add-v1", false); ("async-ba", true);
    ];
  (* A crashed primary forces PBFT's view to move. *)
  let config =
    Core.Config.make "pbft" ~n:16 ~seed:2 ~crashed:[ 0 ]
      ~delay:(Net.Delay_model.normal ~mu:100. ~sigma:20.)
      ~view_sample_ms:200.
  in
  let r = Core.Controller.run config in
  let _, last = List.nth r.view_samples (List.length r.view_samples - 1) in
  Alcotest.(check bool) "pbft view advances after view change" true
    (Array.exists (fun v -> v > 0) last)

let prop_agreement_across_seeds =
  QCheck.Test.make ~name:"agreement holds for every protocol across random seeds" ~count:24
    QCheck.(pair (int_range 0 10) (int_range 0 10_000))
    (fun (proto_idx, seed) ->
      let (module Pr : P.Protocol_intf.S) = List.nth (P.Registry.all ()) proto_idx in
      let r = run Pr.name ~seed in
      r.safety_ok && r.outcome = Core.Controller.Reached_target)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "protocols"
    [
      ( "quorum",
        [
          Alcotest.test_case "thresholds" `Quick test_quorum_thresholds;
          Alcotest.test_case "quorum intersection" `Quick test_quorum_intersection;
          Alcotest.test_case "check" `Quick test_quorum_check;
        ] );
      ( "tally",
        [
          Alcotest.test_case "deduplication" `Quick test_tally_dedup;
          Alcotest.test_case "voters" `Quick test_tally_voters;
          Alcotest.test_case "max_count / clear" `Quick test_tally_max_count;
          qc prop_tally_counts_distinct_voters;
          qc prop_tally_matches_model;
          Alcotest.test_case "negative voter rejected" `Quick test_tally_rejects_negative_voter;
        ] );
      ( "chain",
        [
          Alcotest.test_case "genesis" `Quick test_chain_genesis;
          Alcotest.test_case "extends" `Quick test_chain_extends;
          Alcotest.test_case "chain_between" `Quick test_chain_between;
          Alcotest.test_case "three-chain commit rule" `Quick test_chain_three_chain_commit;
          Alcotest.test_case "digest uniqueness" `Quick test_chain_digest_uniqueness;
        ] );
      ( "liveness+safety",
        [
          Alcotest.test_case "all protocols decide (n=16)" `Quick test_all_protocols_decide;
          Alcotest.test_case "all protocols decide (n=4)" `Quick test_all_protocols_decide_n4;
          Alcotest.test_case "registry" `Quick test_registry;
          qc prop_agreement_across_seeds;
        ] );
      ( "pbft",
        [
          Alcotest.test_case "decides primary's value" `Quick test_pbft_decides_proposers_value;
          Alcotest.test_case "view change on crashed primary" `Quick
            test_pbft_view_change_on_crashed_primary;
          Alcotest.test_case "multi-slot SMR" `Quick test_pbft_multi_slot;
        ] );
      ( "chained",
        [
          Alcotest.test_case "pipelining amortizes" `Quick test_hotstuff_pipelining_efficiency;
          Alcotest.test_case "commit prefix consistency" `Quick
            test_hotstuff_commit_prefix_consistency;
          Alcotest.test_case "librabft crashed-leader recovery" `Quick
            test_librabft_recovers_from_crashed_leaders;
          Alcotest.test_case "pacemaker difference under churn" `Slow
            test_chained_timeout_reset_difference;
        ] );
      ( "algorand",
        [ Alcotest.test_case "partition resilience" `Slow test_algorand_partition_safety ] );
      ( "async-ba",
        [
          Alcotest.test_case "unanimous validity" `Quick test_async_ba_binary_validity;
          Alcotest.test_case "mixed inputs agree" `Quick test_async_ba_mixed_inputs_agree;
        ] );
      ( "add+",
        [
          Alcotest.test_case "unanimous validity (all variants)" `Quick test_add_variants_validity;
          Alcotest.test_case "v1 pays f iterations to static attack" `Quick
            test_add_v1_static_attack_costs_f_iterations;
          Alcotest.test_case "v3 immune to adaptive attack" `Quick test_add_v3_shrugs_off_adaptive;
          Alcotest.test_case "v2 pays budget iterations to adaptive attack" `Quick
            test_add_v2_suffers_adaptive;
        ] );
      ( "views",
        [ Alcotest.test_case "view accessor progresses" `Quick test_view_accessor_progresses ] );
    ]
