type proof_step = Left of Sha256.digest | Right of Sha256.digest

type proof = proof_step list

let hash_leaf leaf = Sha256.digest_string ("leaf|" ^ leaf)

let hash_node l r = Sha256.digest_string ("node|" ^ Sha256.to_raw l ^ Sha256.to_raw r)

let level_of_leaves = function
  | [] -> [| Sha256.digest_string "" |]
  | leaves -> Array.of_list (List.map hash_leaf leaves)

(* An unpaired last node moves up a level unchanged (the RFC 6962 tree
   shape).  Pairing it with a copy of itself instead would give [a; b; c] and
   [a; b; c; c] the same root. *)
let reduce level =
  let n = Array.length level in
  Array.init ((n + 1) / 2) (fun i ->
      if (2 * i) + 1 < n then hash_node level.(2 * i) level.((2 * i) + 1) else level.(2 * i))

let root leaves =
  let level = ref (level_of_leaves leaves) in
  while Array.length !level > 1 do
    level := reduce !level
  done;
  !level.(0)

let prove leaves i =
  let n = List.length leaves in
  if i < 0 || i >= n then invalid_arg "Merkle.prove: leaf index out of bounds";
  let level = ref (level_of_leaves leaves) in
  let idx = ref i in
  let steps = ref [] in
  while Array.length !level > 1 do
    if !idx mod 2 = 1 then steps := Left !level.(!idx - 1) :: !steps
    else if !idx + 1 < Array.length !level then steps := Right !level.(!idx + 1) :: !steps;
    level := reduce !level;
    idx := !idx / 2
  done;
  List.rev !steps

let verify ~root:expected ~leaf proof =
  let acc =
    List.fold_left
      (fun acc step ->
        match step with Left sib -> hash_node sib acc | Right sib -> hash_node acc sib)
      (hash_leaf leaf) proof
  in
  Sha256.equal acc expected
