(* Host-speed reference.  On a shared virtual machine the same pass can
   take twice as long from one half-minute to the next, as other tenants
   load the host's cores and caches.  A fixed kernel timed right after each
   pass sees the same slowdown, so a pass time divided by its reference
   time cancels most of that drift.

   The kernel builds and probes a hash table of boxed values — the
   allocation and pointer-chasing mix a simulation spends its time on.  It
   uses only the standard library and runs in a process of its own
   ([hostbench --reference]), so no change to the simulator, its heap or
   its GC settings can change it, and it leaves the benchmark's peak memory
   alone. *)

(* The minor heap [Parallel.tune_gc] gives simulations (2^22 words), copied
   rather than referenced so that a change there cannot move the reference. *)
let minor_heap_words = 1 lsl 22

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 1 to 400_000 do
    Hashtbl.replace h (i * 7919 land 0xfffff) (float_of_int i, string_of_int i)
  done;
  let x = ref 1 and s = ref 0. in
  for _ = 1 to 2_000_000 do
    x := ((!x * 1103515245) + 12345) land 0xfffff;
    match Hashtbl.find_opt h !x with Some (f, _) -> s := !s +. f | None -> ()
  done;
  !s

(* Seconds one run of the kernel takes in this process. *)
let reference_s () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (kernel ()) : float);
  (Span.now_ns () -. t0) *. 1e-9

(* The kernel's time on a quiet host (2.1 GHz Xeon vCPU), so a pass time
   rescaled to it reads as seconds on such a host. *)
let nominal_s = 1.0

(* [secs] measured next to a [reference] time, at the nominal speed. *)
let rescale ~reference secs = secs *. nominal_s /. reference
