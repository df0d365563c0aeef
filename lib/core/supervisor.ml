(* Crash isolation, cooperative wall-clock deadlines, deterministic retry
   and quarantine for campaign tasks (DESIGN.md §3.13).

   The supervised function receives a [cancel] polling closure instead of
   being preempted: OCaml domains cannot be killed safely, and preemption
   would leave half-mutated simulation state behind.  The controller polls
   it in its event loop (next to the max_events and watchdog checks), so a
   deadline abandons a run between events — completed runs are never
   perturbed and stay deterministic.

   One supervisor serves every worker of a campaign; the bookkeeping
   (counters, per-key failure counts, quarantine set) is mutex-protected,
   while the task itself runs outside the lock. *)

module Sha256 = Bftsim_crypto.Sha256
module Simlog = Bftsim_sim.Simlog
module Obs = Bftsim_obs

exception Cancelled

(* Test-only fault injection: BFTSIM_FAULT_INJECT="crash@17;hang@23" makes
   the replication seeded 17 raise at startup and the one seeded 23 spin on
   the wall clock until cancelled.  The supervised campaign drivers turn
   those into structured outcomes; the knob exists so the resilience tests
   and the CI kill-and-resume job can exercise that machinery end to end. *)
let injected_faults =
  lazy
    (match Sys.getenv_opt "BFTSIM_FAULT_INJECT" with
    | None | Some "" -> []
    | Some spec ->
      String.split_on_char ';' spec
      |> List.filter_map (fun directive ->
             match String.split_on_char '@' (String.trim directive) with
             | [ "crash"; seed ] -> Option.map (fun s -> (`Crash, s)) (int_of_string_opt seed)
             | [ "hang"; seed ] -> Option.map (fun s -> (`Hang, s)) (int_of_string_opt seed)
             | _ ->
               invalid_arg
                 (Printf.sprintf "BFTSIM_FAULT_INJECT: cannot parse %S (want crash@N or hang@N)"
                    directive)))

let inject_faults ~cancel ~seed =
  List.iter
    (fun (kind, s) ->
      if s = seed then
        match kind with
        | `Crash -> failwith (Printf.sprintf "BFTSIM_FAULT_INJECT: injected crash (seed %d)" s)
        | `Hang ->
          (* Spin on the wall clock, not sim time: this models a replication
             that hangs the host.  Only the cooperative deadline (or a
             SIGKILL) gets it unstuck. *)
          while not (cancel ()) do
            Unix.sleepf 0.005
          done;
          raise Cancelled)
    (Lazy.force injected_faults)

type policy = {
  deadline_ms : float option;
  max_retries : int;
  quarantine_after : int;
  retry_base_ms : float;
  seed : int;
}

let policy_of_supervision ~seed (s : Config.supervision) =
  {
    deadline_ms = s.deadline_ms;
    max_retries = s.max_retries;
    quarantine_after = s.quarantine_after;
    retry_base_ms = s.retry_base_ms;
    seed;
  }

let default_policy = policy_of_supervision ~seed:0 Config.default_supervision

let policy_of_config (config : Config.t) =
  policy_of_supervision ~seed:config.Config.seed config.Config.supervision

(* Deterministic jitter: u ∈ [0, 1) from the first 4 digest bytes of
   (seed, key, attempt).  A pure function of its inputs, so re-executing a
   campaign — or resuming it on another pool size — sleeps the same
   schedule. *)
let retry_delay_ms policy ~key ~attempt =
  if attempt < 1 then invalid_arg "Supervisor.retry_delay_ms: attempt < 1";
  if policy.retry_base_ms <= 0. then 0.
  else begin
    let d =
      Sha256.to_raw
        (Sha256.digest_string (Printf.sprintf "retry|%d|%s|%d" policy.seed key attempt))
    in
    let word =
      (Char.code d.[0] lsl 24) lor (Char.code d.[1] lsl 16) lor (Char.code d.[2] lsl 8)
      lor Char.code d.[3]
    in
    let u = float_of_int word /. 4294967296. in
    policy.retry_base_ms *. Float.ldexp 1. (attempt - 1) *. (0.5 +. u)
  end

type failure_kind = Crash of { exn : string; backtrace : string } | Deadline

type 'a outcome =
  | Ok of 'a
  | Crashed of { exn : string; backtrace : string; retries : int }
  | Deadline_exceeded of { wall_ms : float; retries : int }
  | Quarantined of { failures : int }

type stats = { runs_ok : int; runs_crashed : int; runs_timed_out : int; runs_retried : int }

type t = {
  policy : policy;
  lock : Mutex.t;
  mutable counters : stats;
  failures_by_key : (string, int) Hashtbl.t;
  quarantine : (string, int) Hashtbl.t;
}

let create ?(policy = default_policy) () =
  if policy.max_retries < 0 then invalid_arg "Supervisor.create: max_retries < 0";
  if policy.quarantine_after < 1 then invalid_arg "Supervisor.create: quarantine_after < 1";
  (match policy.deadline_ms with
  | Some d when Float.is_nan d || d <= 0. ->
    invalid_arg "Supervisor.create: deadline_ms must be positive"
  | Some _ | None -> ());
  (* Crash reports without backtraces are not diagnosable from the journal
     alone; recording is cheap and idempotent. *)
  Printexc.record_backtrace true;
  {
    policy;
    lock = Mutex.create ();
    counters = { runs_ok = 0; runs_crashed = 0; runs_timed_out = 0; runs_retried = 0 };
    failures_by_key = Hashtbl.create 16;
    quarantine = Hashtbl.create 16;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The polling closure handed to the task: the wall-clock read stride
   ramps 1, 2, 4, … up to 1024 polls, so fast pollers (an event loop
   calling per sub-microsecond event) amortize the clock read away while
   slow pollers (a sleep loop) still see the clock within their first few
   polls.  Latches once fired — the classification below keys off the
   latch, not off which exception the task happened to turn the
   cancellation into. *)
let make_cancel deadline_ms ~start_s ~fired =
  match deadline_ms with
  | None -> fun () -> false
  | Some d ->
    let polls = ref 0 in
    let next_check = ref 1 in
    fun () ->
      if not !fired then begin
        Stdlib.incr polls;
        if !polls >= !next_check then begin
          next_check := !polls + Stdlib.min !polls 1024;
          if (Unix.gettimeofday () -. start_s) *. 1000. >= d then fired := true
        end
      end;
      !fired

let supervise t ~key ?(on_failure = fun ~attempt:_ ~wall_ms:_ _ -> ()) f =
  let quarantined_failures =
    locked t (fun () -> Hashtbl.find_opt t.quarantine key)
  in
  match quarantined_failures with
  | Some failures -> Quarantined { failures }
  | None ->
    let rec attempt_loop attempt =
      let start_s = Unix.gettimeofday () in
      let fired = ref false in
      let cancel = make_cancel t.policy.deadline_ms ~start_s ~fired in
      match f ~cancel with
      | v ->
        locked t (fun () -> t.counters <- { t.counters with runs_ok = t.counters.runs_ok + 1 });
        Ok v
      | exception exn ->
        let backtrace = Printexc.get_backtrace () in
        let wall_ms = (Unix.gettimeofday () -. start_s) *. 1000. in
        let exn_text = Printexc.to_string exn in
        let kind =
          if !fired then Deadline else Crash { exn = exn_text; backtrace }
        in
        (match kind with
        | Deadline ->
          Simlog.err "supervised %s: wall-clock deadline exceeded after %.0f ms (attempt %d)" key
            wall_ms attempt
        | Crash _ ->
          Simlog.err "supervised %s crashed (attempt %d): %s@\n%s" key attempt exn_text
            (if backtrace = "" then "<no backtrace: OCAMLRUNPARAM=b for call sites>"
             else String.trim backtrace));
        let now_quarantined =
          locked t (fun () ->
              t.counters <-
                (match kind with
                | Deadline -> { t.counters with runs_timed_out = t.counters.runs_timed_out + 1 }
                | Crash _ -> { t.counters with runs_crashed = t.counters.runs_crashed + 1 });
              let failures = 1 + Option.value ~default:0 (Hashtbl.find_opt t.failures_by_key key) in
              Hashtbl.replace t.failures_by_key key failures;
              on_failure ~attempt ~wall_ms kind;
              if failures >= t.policy.quarantine_after then begin
                Hashtbl.replace t.quarantine key failures;
                true
              end
              else false)
        in
        if now_quarantined || attempt > t.policy.max_retries then begin
          if now_quarantined then
            Simlog.err "supervised %s quarantined after %d failure(s)" key
              (locked t (fun () -> Hashtbl.find t.quarantine key));
          match kind with
          | Deadline -> Deadline_exceeded { wall_ms; retries = attempt - 1 }
          | Crash { exn; backtrace } -> Crashed { exn; backtrace; retries = attempt - 1 }
        end
        else begin
          locked t (fun () ->
              t.counters <- { t.counters with runs_retried = t.counters.runs_retried + 1 });
          let delay_ms = retry_delay_ms t.policy ~key ~attempt in
          if delay_ms > 0. then Unix.sleepf (delay_ms /. 1000.);
          attempt_loop (attempt + 1)
        end
    in
    attempt_loop 1

let stats t = locked t (fun () -> t.counters)

let quarantined t =
  locked t (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.quarantine []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let export_metrics t reg =
  let s = stats t in
  Obs.Metrics.incr ~by:s.runs_ok reg "supervisor.runs_ok";
  Obs.Metrics.incr ~by:s.runs_crashed reg "supervisor.runs_crashed";
  Obs.Metrics.incr ~by:s.runs_timed_out reg "supervisor.runs_timed_out";
  Obs.Metrics.incr ~by:s.runs_retried reg "supervisor.runs_retried"
