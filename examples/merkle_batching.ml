(* Batched proposals with Merkle commitments.

   Real BFT deployments do not broadcast full client batches in every
   protocol message: the leader commits to a batch with a Merkle root, the
   protocol agrees on the 32-byte root, and clients later fetch logarithmic
   inclusion proofs for their own requests.  This example runs PBFT over
   such commitments and then audits them: every client request gets an
   inclusion proof against the decided root, and a tampered request is
   rejected.

   Run with: dune exec examples/merkle_batching.exe *)

module Core = Bftsim_core
module Net = Bftsim_net
module Merkle = Bftsim_crypto.Merkle
module Sha256 = Bftsim_crypto.Sha256

let () =
  (* The batch the view-0 primary wants decided. *)
  let batch = List.init 12 (fun i -> Printf.sprintf "transfer(acct%d -> acct%d, %d)" i (i + 1) (10 * (i + 1))) in
  let root = Merkle.root batch in
  let commitment = Sha256.to_hex root in
  Format.printf "batch of %d requests, Merkle root %s...@." (List.length batch)
    (String.sub commitment 0 16);

  (* Agree on the commitment: every node proposes it (the primary's value
     wins), so the decided value *is* the root. *)
  let config =
    Core.Config.make "pbft" ~n:16 ~seed:3
      ~delay:(Net.Delay_model.normal ~mu:250. ~sigma:50.)
      ~inputs:(Core.Config.Same commitment)
  in
  let result = Core.Controller.run config in
  let decided =
    match List.find_opt (fun (_, values) -> values <> []) result.decisions with
    | Some (_, value :: _) -> value
    | _ -> failwith "no decision"
  in
  Format.printf "consensus: %a in %.2f s, decided %s...@." Core.Controller.pp_outcome
    result.outcome (result.time_ms /. 1000.)
    (String.sub decided 0 16);
  assert (String.length decided >= String.length commitment);

  (* Audit: inclusion proofs for every request against the decided root. *)
  let proofs_ok =
    List.for_all
      (fun i -> Merkle.verify ~root ~leaf:(List.nth batch i) (Merkle.prove batch i))
      (List.init (List.length batch) (fun i -> i))
  in
  Format.printf "inclusion proofs for all %d requests: %s@." (List.length batch)
    (if proofs_ok then "valid" else "INVALID");

  (* A forged request cannot prove inclusion. *)
  let forged_ok = Merkle.verify ~root ~leaf:"transfer(acct0 -> attacker, 999999)" (Merkle.prove batch 0) in
  (* An unpaired node moves up a level without a sibling, so proofs in a
     batch that is not a power of two differ in length. *)
  let sizes = List.init (List.length batch) (fun i -> List.length (Merkle.prove batch i)) in
  Format.printf "forged request accepted: %b (proofs of %d to %d hashes)@." forged_ok
    (List.fold_left min max_int sizes) (List.fold_left max 0 sizes)
