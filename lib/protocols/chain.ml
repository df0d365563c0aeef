module Sha256 = Bftsim_crypto.Sha256

type qc = { view : int; block : string }

type block = {
  digest : string;
  view : int;
  parent : string;
  justify : qc;
  proposer : int;
  payload : string;
}

let genesis_digest = "genesis"

let genesis_qc = { view = 0; block = genesis_digest }

let genesis =
  { digest = genesis_digest; view = 0; parent = ""; justify = genesis_qc; proposer = -1; payload = "" }

let make_block ?(payload = "") ~view ~(parent : block) ~(justify : qc) ~proposer () =
  let preimage =
    (* The historical preimage is kept verbatim for payload-free blocks so
       that runs without a workload keep their exact digests (and hence
       golden fingerprints); a batch payload extends it. *)
    let base =
      Printf.sprintf "block|%d|%s|%d|%s|%d" view parent.digest justify.view justify.block proposer
    in
    if payload = "" then base else base ^ "|" ^ payload
  in
  let digest = Sha256.to_hex (Sha256.digest_string preimage) in
  (* 16 hex chars are plenty to be collision-free within a run and keep
     decided values readable in traces. *)
  let digest = String.sub digest 0 16 in
  { digest; view; parent = parent.digest; justify; proposer; payload }

type store = { blocks : (string, block) Hashtbl.t }

let create () =
  let blocks = Hashtbl.create 128 in
  Hashtbl.replace blocks genesis.digest genesis;
  { blocks }

let add store b = if not (Hashtbl.mem store.blocks b.digest) then Hashtbl.replace store.blocks b.digest b

let find store digest = Hashtbl.find_opt store.blocks digest

(* The parent test comes before the store lookup: a restarted replica
   recalls its last committed digest but not the block, and catch-up sends
   only the blocks after it. *)
let rec extends store b ~ancestor =
  if String.equal b.digest ancestor || String.equal b.parent ancestor then true
  else if String.equal b.digest genesis.digest then false
  else
    match find store b.parent with
    | None -> false
    | Some parent -> extends store parent ~ancestor

let chain_between store ~after ~upto =
  let rec walk b acc =
    if String.equal b.digest after then acc
    else
      let acc = b :: acc in
      if String.equal b.digest genesis.digest then acc
      else match find store b.parent with None -> acc | Some parent -> walk parent acc
  in
  walk upto []

let three_chain_tail store (qc : qc) =
  match find store qc.block with
  | None -> None
  | Some b1 -> (
    match find store b1.parent with
    | None -> None
    | Some b2 -> (
      match find store b2.parent with
      | None -> None
      | Some b3 ->
        if qc.view = b1.view && b1.view = b2.view + 1 && b2.view = b3.view + 1 then Some b3
        else None))

let pp_qc ppf (qc : qc) = Format.fprintf ppf "QC(v=%d,%s)" qc.view qc.block

let pp_block ppf b =
  if b.payload = "" then
    Format.fprintf ppf "B(%s,v=%d,parent=%s,justify=%a)" b.digest b.view b.parent pp_qc b.justify
  else
    Format.fprintf ppf "B(%s,v=%d,parent=%s,justify=%a,payload=%s)" b.digest b.view b.parent pp_qc
      b.justify b.payload
