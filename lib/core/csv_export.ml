let escape field =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') field
  in
  if not needs_quoting then field
  else begin
    let buf = Buffer.create (String.length field + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let row fields = String.concat "," (List.map escape fields)

let result_header =
  row
    [
      "protocol"; "n"; "seed"; "lambda_ms"; "delay"; "attack"; "target"; "outcome"; "time_ms";
      "per_decision_latency_ms"; "per_decision_messages"; "messages"; "bytes"; "dropped"; "events";
      "max_final_view"; "safety_ok"; "liveness_failure"; "safety_violations";
    ]

(* A journal digest carries every cell of the per-run row, so resumed
   campaigns (which have digests but no live [Controller.result]) export
   the identical CSV an uninterrupted campaign writes. *)
let digest_row (config : Config.t) (d : Journal.digest) =
  row
    [
      config.Config.protocol;
      string_of_int config.Config.n;
      string_of_int d.Journal.seed;
      Printf.sprintf "%g" config.Config.lambda_ms;
      Bftsim_net.Delay_model.describe config.Config.delay;
      Config.describe_attack config.Config.attack;
      string_of_int config.Config.decisions_target;
      d.Journal.outcome;
      Printf.sprintf "%.3f" d.Journal.time_ms;
      Printf.sprintf "%.3f" d.Journal.latency_ms;
      Printf.sprintf "%.2f" d.Journal.messages;
      string_of_int d.Journal.messages_sent;
      string_of_int d.Journal.bytes_sent;
      string_of_int d.Journal.messages_dropped;
      string_of_int d.Journal.events;
      string_of_int d.Journal.max_view;
      string_of_bool d.Journal.safety_ok;
      string_of_bool (d.Journal.outcome <> "reached-target");
      string_of_int d.Journal.violations;
    ]

let result_row (r : Controller.result) =
  digest_row r.Controller.config (Journal.digest_of_result ~rep:0 r)

let summary_header =
  row
    [
      "protocol"; "n"; "lambda_ms"; "delay"; "attack"; "reps"; "latency_mean_ms";
      "latency_stddev_ms"; "latency_min_ms"; "latency_max_ms"; "latency_p50_ms"; "latency_p95_ms";
      "latency_p99_ms"; "messages_mean"; "messages_stddev"; "messages_p50"; "messages_p95";
      "messages_p99"; "liveness_failures"; "safety_violations";
    ]

let summary_row (s : Runner.summary) =
  let c = s.config in
  row
    [
      c.Config.protocol;
      string_of_int c.Config.n;
      Printf.sprintf "%g" c.Config.lambda_ms;
      Bftsim_net.Delay_model.describe c.Config.delay;
      Config.describe_attack c.Config.attack;
      string_of_int s.reps;
      Printf.sprintf "%.3f" s.latency_ms.Stats.mean;
      Printf.sprintf "%.3f" s.latency_ms.Stats.stddev;
      Printf.sprintf "%.3f" s.latency_ms.Stats.min;
      Printf.sprintf "%.3f" s.latency_ms.Stats.max;
      Printf.sprintf "%.3f" s.latency_ms.Stats.median;
      Printf.sprintf "%.3f" s.latency_ms.Stats.p95;
      Printf.sprintf "%.3f" s.latency_ms.Stats.p99;
      Printf.sprintf "%.2f" s.messages.Stats.mean;
      Printf.sprintf "%.2f" s.messages.Stats.stddev;
      Printf.sprintf "%.2f" s.messages.Stats.median;
      Printf.sprintf "%.2f" s.messages.Stats.p95;
      Printf.sprintf "%.2f" s.messages.Stats.p99;
      string_of_int s.liveness_failures;
      string_of_int s.safety_violations;
    ]

let write_file ~path ~header ~rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc header;
      output_char oc '\n';
      List.iter
        (fun r ->
          output_string oc r;
          output_char oc '\n')
        rows)
