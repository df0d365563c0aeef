(* Append-only JSONL campaign journal (DESIGN.md §3.13).

   One JSON object per line: a header first, then Run / Check / Failure
   events.  Appends flush before returning so a SIGKILL loses at most the
   line being written; [load] drops a torn final line for the same reason.
   The byte-identical-resume contract lives in the encoding: digests go
   through [Bftsim_obs.Json], whose float printer round-trips exactly, and
   the campaign drivers consume digests on the live path too. *)

module Json = Bftsim_obs.Json
module Sha256 = Bftsim_crypto.Sha256

let format_name = "bftsim-campaign"
let version = 1

type digest = {
  rep : int;
  seed : int;
  outcome : string;
  last_progress_ms : float option;
  time_ms : float;
  latency_ms : float;
  messages : float;
  messages_sent : int;
  bytes_sent : int;
  messages_dropped : int;
  events : int;
  max_view : int;
  safety_ok : bool;
  violations : int;
  metrics : Json.t option;
}

let outcome_class = function
  | Controller.Reached_target -> "reached-target"
  | Controller.Timed_out -> "timed-out"
  | Controller.Event_cap -> "event-cap"
  | Controller.Queue_drained -> "queue-drained"
  | Controller.Stalled _ -> "stalled"

(* The printer spells integral floats without a decimal point, which the
   parser reads back as [Int]: one print→parse pass makes a live digest
   structurally equal to its journal round trip. *)
let canonical_json j =
  match Json.of_string (Json.to_string j) with Ok v -> v | Error _ -> j

let digest_of_result ~rep (r : Controller.result) =
  {
    rep;
    seed = r.Controller.config.Config.seed;
    outcome = outcome_class r.Controller.outcome;
    last_progress_ms =
      (match r.Controller.outcome with
      | Controller.Stalled { last_progress_ms } -> Some last_progress_ms
      | _ -> None);
    time_ms = r.Controller.time_ms;
    latency_ms = r.Controller.per_decision_latency_ms;
    messages = r.Controller.per_decision_messages;
    messages_sent = r.Controller.messages_sent;
    bytes_sent = r.Controller.bytes_sent;
    messages_dropped = r.Controller.messages_dropped;
    events = r.Controller.events_processed;
    max_view = Array.fold_left Stdlib.max (-1) r.Controller.final_views;
    safety_ok = r.Controller.safety_ok;
    violations = List.length r.Controller.violations;
    metrics =
      Option.map (fun m -> canonical_json (Bftsim_obs.Metrics.to_json m)) r.Controller.metrics;
  }

type event =
  | Run of { cell : string; digest : digest }
  | Check of { cell : string; index : int }
  | Note of { cell : string; body : Json.t }
  | Failure of {
      cell : string;
      rep : int;
      attempt : int;
      wall_ms : float;
      kind : string;
      detail : string;
      backtrace : string;
    }

(* {1 Fingerprints} *)

let cell_of_config config =
  Config.to_keyvalues config
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat "\n"
  |> Sha256.digest_string |> Sha256.to_hex

let fingerprint ~mode ~reps configs =
  Printf.sprintf "%s|%d|%s" mode reps (String.concat "|" (List.map cell_of_config configs))
  |> Sha256.digest_string |> Sha256.to_hex

(* {1 Encoding} *)

let digest_to_json d =
  Json.Assoc
    ([
       ("rep", Json.Int d.rep);
       ("seed", Json.Int d.seed);
       ("outcome", Json.String d.outcome);
     ]
    @ (match d.last_progress_ms with
      | None -> []
      | Some p -> [ ("last_progress_ms", Json.Float p) ])
    @ [
        ("time_ms", Json.Float d.time_ms);
        ("latency_ms", Json.Float d.latency_ms);
        ("messages", Json.Float d.messages);
        ("messages_sent", Json.Int d.messages_sent);
        ("bytes_sent", Json.Int d.bytes_sent);
        ("messages_dropped", Json.Int d.messages_dropped);
        ("events", Json.Int d.events);
        ("max_view", Json.Int d.max_view);
        ("safety_ok", Json.Bool d.safety_ok);
        ("violations", Json.Int d.violations);
      ]
    @ match d.metrics with None -> [] | Some m -> [ ("metrics", m) ])

let event_to_json = function
  | Run { cell; digest } ->
    Json.Assoc
      [ ("run", Json.Assoc [ ("cell", Json.String cell); ("digest", digest_to_json digest) ]) ]
  | Check { cell; index } ->
    Json.Assoc [ ("check", Json.Assoc [ ("cell", Json.String cell); ("index", Json.Int index) ]) ]
  | Note { cell; body } ->
    Json.Assoc [ ("note", Json.Assoc [ ("cell", Json.String cell); ("body", body) ]) ]
  | Failure { cell; rep; attempt; wall_ms; kind; detail; backtrace } ->
    Json.Assoc
      [
        ( "failure",
          Json.Assoc
            [
              ("cell", Json.String cell);
              ("rep", Json.Int rep);
              ("attempt", Json.Int attempt);
              ("wall_ms", Json.Float wall_ms);
              ("kind", Json.String kind);
              ("detail", Json.String detail);
              ("backtrace", Json.String backtrace);
            ] );
      ]

(* {1 Decoding} *)

let ( let* ) r f = Result.bind r f

let field = Json.field ~what:"journal"

let int_field = Json.int_field ~what:"journal"

let float_field = Json.number_field ~what:"journal"

let string_field = Json.string_field ~what:"journal"

let bool_field = Json.bool_field ~what:"journal"

let digest_of_json json =
  let* rep = int_field "rep" json in
  let* seed = int_field "seed" json in
  let* outcome = string_field "outcome" json in
  let last_progress_ms =
    Option.bind (Json.member "last_progress_ms" json) Json.to_number
  in
  let* time_ms = float_field "time_ms" json in
  let* latency_ms = float_field "latency_ms" json in
  let* messages = float_field "messages" json in
  let* messages_sent = int_field "messages_sent" json in
  let* bytes_sent = int_field "bytes_sent" json in
  let* messages_dropped = int_field "messages_dropped" json in
  let* events = int_field "events" json in
  let* max_view = int_field "max_view" json in
  let* safety_ok = bool_field "safety_ok" json in
  let* violations = int_field "violations" json in
  let metrics = Json.member "metrics" json in
  Ok
    {
      rep;
      seed;
      outcome;
      last_progress_ms;
      time_ms;
      latency_ms;
      messages;
      messages_sent;
      bytes_sent;
      messages_dropped;
      events;
      max_view;
      safety_ok;
      violations;
      metrics;
    }

let event_of_json json =
  match
    ( Json.member "run" json,
      Json.member "check" json,
      Json.member "note" json,
      Json.member "failure" json )
  with
  | Some body, _, _, _ ->
    let* cell = string_field "cell" body in
    let* dj = field "digest" body in
    let* digest = digest_of_json dj in
    Ok (Run { cell; digest })
  | None, Some body, _, _ ->
    let* cell = string_field "cell" body in
    let* index = int_field "index" body in
    Ok (Check { cell; index })
  | None, None, Some body, _ ->
    let* cell = string_field "cell" body in
    let* b = field "body" body in
    Ok (Note { cell; body = b })
  | None, None, None, Some body ->
    let* cell = string_field "cell" body in
    let* rep = int_field "rep" body in
    let* attempt = int_field "attempt" body in
    let* wall_ms = float_field "wall_ms" body in
    let* kind = string_field "kind" body in
    let* detail = string_field "detail" body in
    let* backtrace = string_field "backtrace" body in
    Ok (Failure { cell; rep; attempt; wall_ms; kind; detail; backtrace })
  | None, None, None, None -> Error "journal: line is neither run, check, note nor failure"

(* {1 Writing} *)

type t = { oc : out_channel; lock : Mutex.t }

let write_line t json =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      output_string t.oc (Json.to_string json);
      output_char t.oc '\n';
      (* Flush per event: a SIGKILL must lose at most the line in flight. *)
      flush t.oc)

let header_json ~fingerprint =
  Json.Assoc
    [
      ("journal", Json.String format_name);
      ("version", Json.Int version);
      ("fingerprint", Json.String fingerprint);
    ]

let create ~fingerprint path =
  let oc = open_out path in
  let t = { oc; lock = Mutex.create () } in
  write_line t (header_json ~fingerprint);
  t

let append t event = write_line t (event_to_json event)
let close t = close_out t.oc

(* {1 Reading} *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let parse_header json =
  match Json.member "journal" json with
  | Some (Json.String name) when name = format_name -> (
    match Json.member "fingerprint" json with
    | Some (Json.String fp) -> Ok fp
    | _ -> Error "journal: header has no fingerprint")
  | Some _ -> Error "journal: not a bftsim campaign journal"
  | None -> Error "journal: missing header line"

let load path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "journal: no such file: %s" path)
  else
    match read_lines path with
    | [] -> Error (Printf.sprintf "journal: empty file: %s" path)
    | header :: rest -> (
      let* hj =
        Result.map_error (fun e -> "journal: bad header: " ^ e) (Json.of_string header)
      in
      let* fp = parse_header hj in
      let n = List.length rest in
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | line :: tl -> (
          match Result.bind (Json.of_string line) event_of_json with
          | Ok ev -> go (i + 1) (ev :: acc) tl
          | Error e ->
            (* The final line may have been torn by a SIGKILL mid-append:
               drop it.  Anywhere else, corruption is fatal. *)
            if i = n - 1 then Ok (List.rev acc)
            else Error (Printf.sprintf "journal: line %d: %s" (i + 2) e))
      in
      let* events = go 0 [] rest in
      Ok (fp, events))

let abbrev fp = if String.length fp > 12 then String.sub fp 0 12 ^ "…" else fp

(* A SIGKILL mid-append leaves a final line without its newline; appending
   after it would fuse the next record onto the torn bytes.  Trim back to
   the last complete line before reopening. *)
let truncate_torn_tail path =
  let len = (Unix.stat path).Unix.st_size in
  if len > 0 then begin
    let ic = open_in_bin path in
    let last_newline =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go i last =
            if i >= len then last
            else go (i + 1) (if input_char ic = '\n' then i + 1 else last)
          in
          go 0 0)
    in
    if last_newline < len then Unix.truncate path last_newline
  end

let resume ~fingerprint path =
  let* fp, events = load path in
  if fp <> fingerprint then
    Error
      (Printf.sprintf
         "journal: fingerprint mismatch (journal %s, campaign %s): refusing to resume a \
          different campaign"
         (abbrev fp) (abbrev fingerprint))
  else begin
    truncate_torn_tail path;
    let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
    Ok ({ oc; lock = Mutex.create () }, events)
  end

(* {1 Queries} *)

let runs events ~cell =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (function
      | Run r when r.cell = cell && not (Hashtbl.mem seen r.digest.rep) ->
        Hashtbl.add seen r.digest.rep ();
        Some (r.digest.rep, r.digest)
      | _ -> None)
    events

let checks events ~cell =
  List.filter_map (function Check c when c.cell = cell -> Some c.index | _ -> None) events
  |> List.sort_uniq Stdlib.compare

let notes events ~cell =
  List.filter_map (function Note n when n.cell = cell -> Some n.body | _ -> None) events
