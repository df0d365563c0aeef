type evaluation = {
  node : int;
  input : string;
  output : Sha256.digest;
  proof : Sig_sim.signature;
}

let output_of key input = Hmac.mac_with key ("vrf|" ^ input)

let proof_message input output = String.concat "" [ "vrf-proof|"; input; "|"; Sha256.to_raw output ]

(* Both sides take the evaluator's prepared key from the per-domain table and
   MAC with it directly; the keypair's public key is never read here, so it
   is never computed. *)
let eval ~seed ~node ~input =
  let key = Sig_sim.key_of ~seed ~node in
  let output = output_of key input in
  let proof = { Sig_sim.signer = node; tag = Hmac.mac_with key (proof_message input output) } in
  { node; input; output; proof }

let verify ~seed ev =
  ev.proof.Sig_sim.signer = ev.node
  &&
  let key = Sig_sim.key_of ~seed ~node:ev.node in
  Sha256.equal (Hmac.mac_with key (proof_message ev.input ev.output)) ev.proof.Sig_sim.tag
  &&
  (* Re-derive the evaluation itself: in the simulated scheme the verifier
     may recompute the evaluator's HMAC directly. *)
  Sha256.equal (output_of key ev.input) ev.output

let ticket ev = Int64.logand (Sha256.first64 ev.output) Int64.max_int

let winner evs =
  let better a b =
    let ta = ticket a and tb = ticket b in
    let c = Int64.compare ta tb in
    c < 0 || (c = 0 && a.node < b.node)
  in
  List.fold_left
    (fun best ev -> match best with None -> Some ev | Some b -> if better ev b then Some ev else best)
    None evs
