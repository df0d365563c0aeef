let to_string x =
  let short = Printf.sprintf "%g" x in
  if Float.equal (float_of_string short) x then short else Printf.sprintf "%.17g" x
