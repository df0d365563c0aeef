(* Trace exporters: JSONL (one event object per line, friendly to grep and
   jq) and the Chrome trace_event array format, which Perfetto and
   chrome://tracing open directly.

   Both formats share the per-entry object: the simulated timestamp is the
   primary axis ("ts"/"dur", microseconds, as the format requires) and the
   wall-clock offset rides along in "args.wall_us", so a viewer shows the
   protocol timeline while the raw numbers still attribute host time. *)

type format = Jsonl | Chrome

let arg_to_json = function
  | Tracer.Str s -> Json.String s
  | Tracer.Int i -> Json.Int i
  | Tracer.Float f -> Json.Float f

(* One Chrome trace-event object: name, cat, ph (X/i), ts, dur/s, pid,
   tid (the node), args. *)
let entry_to_json (e : Tracer.entry) =
  Json.Assoc
    ([
       ("name", Json.String e.name);
       ("cat", Json.String e.cat);
       ("ph", Json.String (match e.phase with Tracer.Complete -> "X" | Tracer.Instant -> "i"));
       ("ts", Json.Float e.ts_us);
     ]
    @ (match e.phase with
      | Tracer.Complete -> [ ("dur", Json.Float e.dur_us) ]
      | Tracer.Instant -> [ ("s", Json.String "t") ])
    @ [
        ("pid", Json.Int 0);
        ("tid", Json.Int e.node);
        ( "args",
          Json.Assoc
            (("wall_us", Json.Float e.wall_us) :: List.map (fun (k, v) -> (k, arg_to_json v)) e.args)
        );
      ])

let chrome_json t =
  Json.Assoc
    [
      ("traceEvents", Json.List (List.map entry_to_json (Tracer.entries t)));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Assoc
          [
            ("recorded", Json.Int (Tracer.recorded t));
            ("dropped", Json.Int (Tracer.dropped t));
          ] );
    ]

let write_chrome oc t = output_string oc (Json.to_string (chrome_json t))

let write_jsonl oc t =
  Tracer.iter t (fun e ->
      output_string oc (Json.to_string (entry_to_json e));
      output_char oc '\n')

let write_file ~path ~format t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> match format with Jsonl -> write_jsonl oc t | Chrome -> write_chrome oc t)
