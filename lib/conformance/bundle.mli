(** Replayable counterexample bundles.

    When the harness finds a violation it persists everything needed to
    reproduce and triage it, as plain text under [dir/name/]:

    - [config.txt] — the shrunk failing configuration in the CLI's
      key = value syntax, replayable verbatim with [bftsim run -c] /
      [bftsim validate -c];
    - [original.txt] — the configuration as generated, before shrinking;
    - [report.txt] — the oracle verdicts and the run outcome;
    - [trace.txt] — the failing run's event trace, when recorded. *)

open Bftsim_core

val write :
  dir:string ->
  name:string ->
  original:Config.t ->
  shrunk:Config.t ->
  verdicts:Oracle.verdict list ->
  result:Controller.result ->
  unit ->
  string
(** Writes the bundle and returns its directory path. *)
