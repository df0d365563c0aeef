(* Fixed-size domain pool for fanning independent simulation runs across
   cores.

   A [map] call spins up workers (the calling domain is one of them) over a
   shared chunked task queue: workers claim the next [chunk] indices with an
   atomic fetch-and-add, so a fast worker steals the work a slow one never
   reaches.  Results land in a slot array keyed by input index and are
   reassembled in input order — callers observe the exact sequence the
   sequential path would have produced, whatever the domain interleaving
   was.

   Pool sizing (DESIGN.md §3.15): OCaml 5 minor collections are
   stop-the-world across every running domain, so domains beyond the
   hardware's parallelism do not merely idle — each minor GC must wait for
   descheduled domains to reach a safepoint, and an oversubscribed pool
   runs {e slower} than one thread (the 0.49x of BENCH_pr2.json).  [map]
   therefore never spawns more domains than
   [Domain.recommended_domain_count () - 1] whatever [jobs] asks for; the
   extra jobs fold into work-stealing over the same chunk queue, so results
   are identical.  [~oversubscribe:true] disables the cap — tests use it to
   exercise true cross-domain execution on small machines. *)

let hardware_jobs () = Stdlib.max 1 (Domain.recommended_domain_count () - 1)

let default_jobs () =
  match Sys.getenv_opt "BFTSIM_JOBS" with
  | Some v -> (
    match int_of_string_opt v with
    | Some j when j >= 1 -> j
    | Some _ | None -> hardware_jobs ())
  | None -> hardware_jobs ()

(* GC shape for simulation workloads: the event loop's survivors are few
   (messages die at delivery), so a big minor heap turns almost all of the
   collection work into cheap pointer resets — and under a domain pool it
   divides the number of stop-the-world synchronizations by the same
   factor.  2^21 words = 16 MiB per domain.  With the 32 MiB heap used
   before, a major slice at half the heap usually ended a major cycle,
   whose stop-the-world step empties the minor heap, so most runs used
   only its upper half, and at 16 MiB pass times move within host
   noise. *)
let simulation_minor_heap_words = 1 lsl 21

(* Whether the current domain's minor heap had to grow. *)
let grow_minor_heap () =
  let g = Gc.get () in
  let grow = g.Gc.minor_heap_size < simulation_minor_heap_words in
  if grow then Gc.set { g with Gc.minor_heap_size = simulation_minor_heap_words };
  grow

(* Touches every page of the minor heap once, so the process holds the
   whole heap in resident memory from the start.  Left alone, how much of
   it a process touches depends on where collections happen to fall (see
   above): with the 32 MiB heap, the peak memory of perfbench's
   chaos-recovery read 34 MB for some seeds and 52 MB for others.  An
   attempt allocates short-lived blocks from a freshly emptied heap down
   to its last 512 words; it is repeated while a collection cut it short
   (two attempts in practice, ~10 ms for 16 MiB on a 2.1 GHz Xeon vCPU). *)
let commit_minor_heap () =
  let words = float_of_int ((Gc.get ()).Gc.minor_heap_size - 512) in
  let rec attempt tries =
    Gc.minor ();
    let collections = (Gc.quick_stat ()).Gc.minor_collections in
    let w0 = Gc.minor_words () in
    while Gc.minor_words () -. w0 < words do
      ignore (Sys.opaque_identity (Array.make 255 0))
    done;
    if (Gc.quick_stat ()).Gc.minor_collections <> collections && tries > 1 then
      attempt (tries - 1)
  in
  attempt 8

(* The major heap's space overhead for simulations, below OCaml's default
   of 120.  A run's major heap is mostly floating garbage (per-run tables
   and the arrays a growing queue left behind), and how much of it is
   still unswept at the peak depends on where major cycles end.  With the
   default, perfbench fig2-scale's peak memory read 52 MB for most seeds
   and 60 MB for about one in eight; at 80 it reads 47-48 MB for both,
   with no pass time difference that the host noise shows. *)
let simulation_space_overhead = 80

let tune_gc () =
  if grow_minor_heap () then begin
    Gc.set { (Gc.get ()) with Gc.space_overhead = simulation_space_overhead };
    commit_minor_heap ()
  end

(* Workers stay pinned in this loop until the queue drains.  [chunk]
   consecutive indices per claim amortizes the atomic and keeps one
   worker's result slots on contiguous cache lines (adjacent slots written
   by different domains would otherwise ping-pong the line). *)
let worker_loop ~results ~input ~next ~failure ~n ~chunk f =
  let continue = ref true in
  while !continue do
    let start = Atomic.fetch_and_add next chunk in
    if start >= n || Atomic.get failure <> None then continue := false
    else begin
      let stop = Stdlib.min n (start + chunk) in
      try
        for i = start to stop - 1 do
          results.(i) <- Some (f input.(i))
        done
      with exn ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failure None (Some (exn, bt)));
        continue := false
    end
  done

let map ?jobs ?chunk ?(oversubscribe = false) f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Parallel.map: jobs < 1";
  (match chunk with Some c when c < 1 -> invalid_arg "Parallel.map: chunk < 1" | _ -> ());
  let input = Array.of_list xs in
  let n = Array.length input in
  if n = 0 then []
  else if jobs = 1 || n = 1 then List.map f xs
  else begin
    (* Default chunk: ~8 claims per worker balances stealing granularity
       against atomic traffic; small batches stay at 1 so reps still
       spread across the pool. *)
    let chunk =
      match chunk with Some c -> c | None -> Stdlib.max 1 (n / (jobs * 8))
    in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* First failure wins; remaining workers drain and stop so the
       exception surfaces with its original backtrace. *)
    let failure = Atomic.make None in
    let worker () = worker_loop ~results ~input ~next ~failure ~n ~chunk f in
    let chunks = (n + chunk - 1) / chunk in
    (* The caller participates, so [recommended - 1] spawned domains fill
       the machine exactly. *)
    let hw_cap =
      if oversubscribe then max_int else Domain.recommended_domain_count () - 1
    in
    let spawned = Stdlib.max 0 (Stdlib.min (Stdlib.min (jobs - 1) (chunks - 1)) hw_cap) in
    let domains =
      Array.init spawned (fun _ ->
          Domain.spawn (fun () ->
              (* Fresh domains start with the default (small) minor heap;
                 grow it so GC synchronization stays rare (see header).
                 Its pages are not touched up front: a worker of a short
                 map would pay for memory it never uses. *)
              ignore (grow_minor_heap () : bool);
              worker ()))
    in
    worker ();
    Array.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
  end
