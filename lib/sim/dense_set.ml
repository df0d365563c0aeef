(* Growable bitset over small non-negative integers.

   The controller's timer bookkeeping keys on sequential timer ids and the
   protocols' vote tallies on logical node ids, so a flat bit per id beats
   a hashtable: membership is a shift and a mask with no per-operation
   allocation (a [Hashtbl.replace] conses a bucket), and the set grows to
   one bit per id ever issued. *)

type t = { mutable bits : Bytes.t }

let create ?(initial_capacity = 256) () =
  { bits = Bytes.make (Stdlib.max 1 ((initial_capacity + 7) / 8)) '\000' }

let ensure t i =
  let needed = (i / 8) + 1 in
  let cur = Bytes.length t.bits in
  if needed > cur then begin
    let bits' = Bytes.make (Stdlib.max needed (2 * cur)) '\000' in
    Bytes.blit t.bits 0 bits' 0 cur;
    t.bits <- bits'
  end

let add t i =
  if i < 0 then invalid_arg "Dense_set.add: negative key";
  ensure t i;
  let byte = i lsr 3 and mask = 1 lsl (i land 7) in
  Bytes.unsafe_set t.bits byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits byte) lor mask))

let mem t i =
  if i < 0 then false
  else
    let byte = i lsr 3 in
    byte < Bytes.length t.bits
    && Char.code (Bytes.unsafe_get t.bits byte) land (1 lsl (i land 7)) <> 0

let remove t i =
  if i >= 0 then begin
    let byte = i lsr 3 in
    if byte < Bytes.length t.bits then
      Bytes.unsafe_set t.bits byte
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits byte) land lnot (1 lsl (i land 7))))
  end

let cardinal t =
  let count = ref 0 in
  Bytes.iter
    (fun c ->
      let b = ref (Char.code c) in
      while !b <> 0 do
        b := !b land (!b - 1);
        incr count
      done)
    t.bits;
  !count

let elements t =
  let acc = ref [] in
  for i = (8 * Bytes.length t.bits) - 1 downto 0 do
    if mem t i then acc := i :: !acc
  done;
  !acc
