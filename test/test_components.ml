(* Tests for the reusable components added around the core reproduction:
   Bracha reliable broadcast (the primitive under async BA) and the CSV
   exporter. *)

module Core = Bftsim_core
module Net = Bftsim_net
module P = Bftsim_protocols

(* --- Test harness protocols built on Rbc --- *)

(* Every node RBC-broadcasts its message; once it has delivered the number
   of broadcasts named in its input, it decides the sorted concatenation. *)
module Rbc_flood = struct
  let name = "rbc-flood-test"

  let model = P.Protocol_intf.Asynchronous

  let pipelined = false

  type node = {
    rbc : P.Rbc.t;
    mutable received : string list;
    mutable decided : bool;
    expected : int;
  }

  let create ctx =
    {
      rbc = P.Rbc.create ();
      received = [];
      decided = false;
      expected = int_of_string ctx.P.Context.input;
    }

  let on_start t ctx =
    P.Rbc.broadcast t.rbc ctx ~tag:"flood" ~value:(Printf.sprintf "m%d" ctx.P.Context.node_id)

  let on_message t ctx msg =
    match P.Rbc.handle t.rbc ctx msg with
    | Some (_, _, value) ->
      t.received <- value :: t.received;
      if List.length t.received >= t.expected && not t.decided then begin
        t.decided <- true;
        ctx.P.Context.decide (String.concat "+" (List.sort compare t.received))
      end
    | None -> ()

  let on_timer _ _ _ = ()

  let on_restart = on_start

  let view t = List.length t.received
end

(* Decides the value delivered for origin 0's broadcast — the totality
   probe used by the equivocation test. *)
module Rbc_origin = struct
  let name = "rbc-origin-test"

  let model = P.Protocol_intf.Asynchronous

  let pipelined = false

  type node = { rbc : P.Rbc.t; mutable decided : bool }

  let create _ctx = { rbc = P.Rbc.create (); decided = false }

  let on_start t ctx =
    P.Rbc.broadcast t.rbc ctx ~tag:"probe" ~value:(Printf.sprintf "m%d" ctx.P.Context.node_id)

  let on_message t ctx msg =
    match P.Rbc.handle t.rbc ctx msg with
    | Some (0, _, value) when not t.decided ->
      t.decided <- true;
      ctx.P.Context.decide value
    | _ -> ()

  let on_timer _ _ _ = ()

  let on_restart = on_start

  let view t = if t.decided then 1 else 0
end

let () =
  P.Registry.register (module Rbc_flood);
  P.Registry.register (module Rbc_origin)

let run ?(protocol = "rbc-flood-test") ?(n = 16) ?(seed = 5) ?crashed ?attacker ~expected () =
  let config =
    Core.Config.make protocol ~n ~seed ?crashed
      ~delay:(Net.Delay_model.normal ~mu:100. ~sigma:20.)
      ~inputs:(Core.Config.Same (string_of_int expected))
      ~max_time_ms:60_000.
  in
  Core.Controller.run ?attacker config

let test_rbc_all_deliver () =
  let r = run ~expected:16 () in
  Alcotest.(check bool) "all decide" true (r.outcome = Core.Controller.Reached_target);
  Alcotest.(check bool) "agreement" true r.safety_ok;
  (* The decided set is every node's message. *)
  let _, values = List.hd (List.filter (fun (_, v) -> v <> []) r.decisions) in
  let expected = String.concat "+" (List.sort compare (List.init 16 (Printf.sprintf "m%d"))) in
  Alcotest.(check string) "full set delivered" expected (List.hd values)

let test_rbc_validity_under_crashes () =
  (* f = 5 crashed origins: the 11 live broadcasts must still deliver
     everywhere (11 = 2f+1 echo quorum is exactly reachable). *)
  let r = run ~crashed:[ 11; 12; 13; 14; 15 ] ~expected:11 () in
  Alcotest.(check bool) "live nodes decide" true (r.outcome = Core.Controller.Reached_target);
  Alcotest.(check bool) "same delivered set" true r.safety_ok

let test_rbc_totality_under_equivocation () =
  (* The attacker splits origin 0's init: odd receivers get a forged value.
     Neither value can reach the 2f+1 echo quorum, so no honest node may
     deliver origin 0's broadcast at all — and in no case may two nodes
     deliver different values (the controller's agreement check). *)
  let forge (env : Bftsim_attack.Attacker.env) (msg : Net.Message.t) ~dst ~delay_ms =
    match msg.Net.Message.payload with
    | P.Rbc.Rbc_init { origin = 0; tag; value } when dst mod 2 = 1 ->
      env.inject ~src:0 ~dst ~delay_ms ~tag:"rbc-init*" ~size:msg.Net.Message.size
        (P.Rbc.Rbc_init { origin = 0; tag; value = value ^ "#forged" });
      Bftsim_attack.Attacker.Drop
    | _ -> Bftsim_attack.Attacker.Deliver
  in
  let attacker =
    {
      Bftsim_attack.Attacker.name = "rbc-equivocator";
      on_start = (fun _ -> ());
      attack = forge;
      on_time_event = (fun _ _ -> ());
    }
  in
  let r = run ~protocol:"rbc-origin-test" ~attacker ~expected:1 () in
  Alcotest.(check bool) "totality: no conflicting deliveries" true r.safety_ok;
  Alcotest.(check bool) "split init cannot be delivered" true
    (r.outcome <> Core.Controller.Reached_target)

let test_rbc_spoofed_init_ignored () =
  (* An init claiming origin 0 but sent by node 3 must not trigger echoes:
     drive the handler directly. *)
  let delivered = ref [] in
  let sent = ref 0 in
  let ctx node_id =
    {
      P.Context.node_id;
      n = 4;
      f = 1;
      lambda_ms = 1000.;
      seed = 1;
      input = "";
      naive_reset = P.Context.Reset_on_commit;
      rng = Bftsim_sim.Rng.create 1;
      now = (fun () -> Bftsim_sim.Time.zero);
      send_raw = (fun ~dst:_ ~tag:_ ~size:_ _ -> incr sent);
      broadcast_raw = (fun ~include_self:_ ~tag:_ ~size:_ _ -> sent := !sent + 4);
      set_timer = (fun ~delay_ms:_ ~tag:_ _ -> 0);
      cancel_timer = ignore;
      decide = (fun v -> delivered := v :: !delivered);
      probe = (fun ~tag:_ ~detail:_ -> ());
      leader_schedule = None;
      request_proposal = (fun ~slot:_ ~width:_ ~default k -> ignore (k default : bool));
      pipeline_depth = 1;
      durable = false;
      persist = (fun ~key:_ _ -> ());
      recall = (fun ~key:_ -> None);
      on_caught_up = ignore;
    }
  in
  let t = P.Rbc.create () in
  let spoofed =
    Net.Message.envelope ~src:3 ~sent_at:Bftsim_sim.Time.zero
      (P.Rbc.Rbc_init { origin = 0; tag = "x"; value = "evil" })
  in
  Alcotest.(check bool) "no delivery" true (P.Rbc.handle t (ctx 1) spoofed = None);
  Alcotest.(check int) "no echo sent" 0 !sent;
  let genuine =
    Net.Message.envelope ~src:0 ~sent_at:Bftsim_sim.Time.zero
      (P.Rbc.Rbc_init { origin = 0; tag = "x"; value = "good" })
  in
  ignore (P.Rbc.handle t (ctx 1) genuine);
  Alcotest.(check int) "echo broadcast to all 4" 4 !sent

let test_rbc_delivery_thresholds () =
  (* Drive one node's handler: 2f+1 echoes trigger a ready, 2f+1 readies
     deliver exactly once. *)
  let sends = ref [] in
  let ctx =
    {
      P.Context.node_id = 0;
      n = 4;
      f = 1;
      lambda_ms = 1000.;
      seed = 1;
      input = "";
      naive_reset = P.Context.Reset_on_commit;
      rng = Bftsim_sim.Rng.create 1;
      now = (fun () -> Bftsim_sim.Time.zero);
      send_raw = (fun ~dst:_ ~tag ~size:_ _ -> sends := tag :: !sends);
      broadcast_raw = (fun ~include_self:_ ~tag ~size:_ _ -> sends := tag :: !sends);
      set_timer = (fun ~delay_ms:_ ~tag:_ _ -> 0);
      cancel_timer = ignore;
      decide = ignore;
      probe = (fun ~tag:_ ~detail:_ -> ());
      leader_schedule = None;
      request_proposal = (fun ~slot:_ ~width:_ ~default k -> ignore (k default : bool));
      pipeline_depth = 1;
      durable = false;
      persist = (fun ~key:_ _ -> ());
      recall = (fun ~key:_ -> None);
      on_caught_up = ignore;
    }
  in
  let t = P.Rbc.create () in
  let msg src payload = Net.Message.envelope ~src ~sent_at:Bftsim_sim.Time.zero payload in
  let echo src = P.Rbc.handle t ctx (msg src (P.Rbc.Rbc_echo { origin = 2; tag = "t"; value = "v" })) in
  let ready src =
    P.Rbc.handle t ctx (msg src (P.Rbc.Rbc_ready { origin = 2; tag = "t"; value = "v" }))
  in
  Alcotest.(check bool) "2 echoes: nothing" true (echo 1 = None && echo 2 = None);
  Alcotest.(check bool) "3rd echo: still no delivery" true (echo 3 = None);
  Alcotest.(check bool) "ready sent after echo quorum" true
    (List.mem "rbc-ready" !sends);
  Alcotest.(check bool) "2 readies: no delivery yet" true (ready 1 = None && ready 2 = None);
  (match ready 3 with
  | Some (2, "t", "v") -> ()
  | _ -> Alcotest.fail "3rd ready must deliver");
  Alcotest.(check bool) "no double delivery" true (ready 4 = None);
  Alcotest.(check (option string)) "delivered recorded" (Some "v")
    (P.Rbc.delivered t ~origin:2 ~tag:"t");
  Alcotest.(check int) "delivered count" 1 (P.Rbc.delivered_count t)

(* --- CSV export --- *)

let test_csv_escape () =
  Alcotest.(check string) "plain untouched" "abc" (Core.Csv_export.escape "abc");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Core.Csv_export.escape "a,b");
  Alcotest.(check string) "quote doubled" "\"a\"\"b\"" (Core.Csv_export.escape "a\"b");
  Alcotest.(check string) "newline quoted" "\"a\nb\"" (Core.Csv_export.escape "a\nb")

let field_count line =
  (* Count top-level commas (none of our test rows contain quoted commas). *)
  List.length (String.split_on_char ',' line)

let test_csv_rows_match_headers () =
  let config = Core.Config.make "pbft" ~seed:1 ~delay:(Net.Delay_model.Constant 50.) in
  let r = Core.Controller.run config in
  Alcotest.(check int) "result columns" (field_count Core.Csv_export.result_header)
    (field_count (Core.Csv_export.result_row r));
  let s = Core.Runner.run_many ~reps:3 config in
  Alcotest.(check int) "summary columns" (field_count Core.Csv_export.summary_header)
    (field_count (Core.Csv_export.summary_row s))

let test_csv_content () =
  let config = Core.Config.make "pbft" ~n:7 ~seed:9 ~delay:(Net.Delay_model.Constant 50.) in
  let r = Core.Controller.run config in
  let line = Core.Csv_export.result_row r in
  let fields = String.split_on_char ',' line in
  Alcotest.(check string) "protocol" "pbft" (List.nth fields 0);
  Alcotest.(check string) "n" "7" (List.nth fields 1);
  Alcotest.(check string) "seed" "9" (List.nth fields 2);
  Alcotest.(check string) "outcome" "reached-target" (List.nth fields 7);
  Alcotest.(check string) "safety" "true" (List.nth fields 16)

let test_csv_write_file () =
  let path = Filename.temp_file "bftsim" ".csv" in
  Core.Csv_export.write_file ~path ~header:"a,b" ~rows:[ "1,2"; "3,4" ];
  let ic = open_in path in
  let lines = List.init 3 (fun _ -> input_line ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string)) "file contents" [ "a,b"; "1,2"; "3,4" ] lines

let () =
  Alcotest.run "components"
    [
      ( "rbc",
        [
          Alcotest.test_case "all-to-all delivery" `Quick test_rbc_all_deliver;
          Alcotest.test_case "validity under crashes" `Quick test_rbc_validity_under_crashes;
          Alcotest.test_case "totality under equivocation" `Quick
            test_rbc_totality_under_equivocation;
          Alcotest.test_case "spoofed init ignored" `Quick test_rbc_spoofed_init_ignored;
          Alcotest.test_case "delivery thresholds" `Quick test_rbc_delivery_thresholds;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escape;
          Alcotest.test_case "rows match headers" `Quick test_csv_rows_match_headers;
          Alcotest.test_case "content" `Quick test_csv_content;
          Alcotest.test_case "write_file" `Quick test_csv_write_file;
        ] );
    ]
