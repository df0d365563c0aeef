open Bftsim_sim

type payload = ..

type payload += Blob of string

type t = { src : int; sent_at : Time.t; tag : string; size : int; payload : payload }

let default_size = 128

let envelope ~src ~sent_at ?(tag = "msg") ?(size = default_size) payload =
  { src; sent_at; tag; size; payload }

type addressed = { msg : t; dst : int; id : int; mutable delay_ms : float }

let make ~id ~src ~dst ~sent_at ?tag ?size payload =
  { msg = envelope ~src ~sent_at ?tag ?size payload; dst; id; delay_ms = 0. }

let arrival_time a = Time.add_ms a.msg.sent_at a.delay_ms

(* Registrations happen from protocol-module initializers, which race when
   [run_many] first touches several protocols from different domains: the
   list is an [Atomic.t] updated by compare-and-set, so registration is
   lock-free, O(1) (prepend, not the quadratic [old @ [f]] append this
   replaced), and never loses a printer.  The registration-order-first
   lookup semantics are recovered by reversing the snapshot at rendering
   time — rendering is a cold path (traces and logs only). *)
let printers : (payload -> string option) list Atomic.t = Atomic.make []

let rec register_printer f =
  let cur = Atomic.get printers in
  if not (Atomic.compare_and_set printers cur (f :: cur)) then register_printer f

let payload_to_string p =
  let rec try_all = function
    | [] -> ( match p with Blob s -> Printf.sprintf "Blob(%s)" s | _ -> "<payload>")
    | f :: rest -> ( match f p with Some s -> s | None -> try_all rest)
  in
  try_all (List.rev (Atomic.get printers))
