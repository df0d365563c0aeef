let src = Logs.Src.create "bftsim" ~doc:"BFT simulator events"


(* A run's hooks: its clock, and, when a tracer is active, a mirror that
   also puts warn/err lines on the trace timeline.  They live in
   domain-local storage, not a global ref: concurrent simulations
   (Parallel.map fanning Controller.run across domains) each install their
   own without racing on a shared cell.  They are hooks, not dependencies:
   Simlog stays below the telemetry library. *)
type hooks = { now : unit -> Time.t; mirror : (level:Logs.level -> string -> unit) option }

let idle = { now = (fun () -> Time.zero); mirror = None }

let key = Domain.DLS.new_key (fun () -> idle)

let hooks ~now ?mirror () = { now; mirror }

let install h = if Domain.DLS.get key != h then Domain.DLS.set key h

let uninstall h = if Domain.DLS.get key == h then Domain.DLS.set key idle

let level_to_int = function
  | Logs.App -> 0
  | Logs.Error -> 1
  | Logs.Warning -> 2
  | Logs.Info -> 3
  | Logs.Debug -> 4

let enabled level =
  match Logs.Src.level src with
  | None -> false
  | Some max_level -> level_to_int level <= level_to_int max_level

(* Formatting happens only when the level is enabled, so per-message debug
   calls cost one comparison in large benchmark runs.  A mirrored
   warn/err line is formatted even when the log level suppresses it: the
   trace timeline must show warnings whatever the console verbosity. *)
let log level fmt =
  let hooks = Domain.DLS.get key in
  let mirror =
    match hooks.mirror with
    | Some m when level_to_int level <= level_to_int Logs.Warning -> Some m
    | Some _ | None -> None
  in
  let log_on = enabled level in
  if log_on || mirror <> None then
    Format.kasprintf
      (fun s ->
        if log_on then Logs.msg ~src level (fun m -> m "[%a] %s" Time.pp (hooks.now ()) s);
        match mirror with Some m -> m ~level s | None -> ())
      fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let debug fmt = log Logs.Debug fmt

let info fmt = log Logs.Info fmt

let warn fmt = log Logs.Warning fmt

let err fmt = log Logs.Error fmt

let setup_for_cli ~level =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.Src.set_level src level
