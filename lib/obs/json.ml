(* Minimal JSON codec.

   Yojson is not part of the dependency set, so the telemetry subsystem
   carries its own printer and parser: the exporters need a correct
   serializer, and the tests need to parse exporter output back to prove
   it is well-formed.  Scope is exactly RFC 8259 (objects, arrays,
   strings with escapes incl. \uXXXX surrogate pairs, numbers, literals);
   no streaming, no options. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* --- printing --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest float representation that round-trips; non-finite values have
   no JSON spelling and degrade to null (callers should avoid them). *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Assoc kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_error of string

type state = { input : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "invalid hex digit in \\u escape"

let parse_hex4 st =
  if st.pos + 4 > String.length st.input then fail st "truncated \\u escape";
  let v =
    (hex_digit st st.input.[st.pos] lsl 12)
    lor (hex_digit st st.input.[st.pos + 1] lsl 8)
    lor (hex_digit st st.input.[st.pos + 2] lsl 4)
    lor hex_digit st st.input.[st.pos + 3]
  in
  st.pos <- st.pos + 4;
  v

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> advance st; Buffer.add_char buf '"'; loop ()
      | Some '\\' -> advance st; Buffer.add_char buf '\\'; loop ()
      | Some '/' -> advance st; Buffer.add_char buf '/'; loop ()
      | Some 'n' -> advance st; Buffer.add_char buf '\n'; loop ()
      | Some 't' -> advance st; Buffer.add_char buf '\t'; loop ()
      | Some 'r' -> advance st; Buffer.add_char buf '\r'; loop ()
      | Some 'b' -> advance st; Buffer.add_char buf '\b'; loop ()
      | Some 'f' -> advance st; Buffer.add_char buf '\012'; loop ()
      | Some 'u' ->
        advance st;
        let cp = parse_hex4 st in
        let cp =
          (* High surrogate: a low surrogate must follow; combine them. *)
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            if
              st.pos + 1 < String.length st.input
              && st.input.[st.pos] = '\\'
              && st.input.[st.pos + 1] = 'u'
            then begin
              st.pos <- st.pos + 2;
              let low = parse_hex4 st in
              if low < 0xDC00 || low > 0xDFFF then fail st "invalid low surrogate";
              0x10000 + ((cp - 0xD800) lsl 10) + (low - 0xDC00)
            end
            else fail st "lone high surrogate"
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then fail st "lone low surrogate"
          else cp
        in
        add_utf8 buf cp;
        loop ()
      | _ -> fail st "invalid escape")
    | Some c when Char.code c < 0x20 -> fail st "raw control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while (match peek st with Some c when is_num_char c -> true | _ -> false) do
    advance st
  done;
  let text = String.sub st.input start (st.pos - start) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st (Printf.sprintf "invalid number %S" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* Magnitude beyond the int range still parses as a float. *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail st (Printf.sprintf "invalid number %S" text))

let parse_literal st word v =
  let len = String.length word in
  if st.pos + len <= String.length st.input && String.sub st.input st.pos len = word then begin
    st.pos <- st.pos + len;
    v
  end
  else fail st (Printf.sprintf "expected %s" word)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> String (parse_string st)
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Assoc []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Assoc (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      List (elements [])
    end
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let st = { input = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors (the subset the tests need) --- *)

let member key = function Assoc kvs -> List.assoc_opt key kvs | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_number = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None

let field ~what name json =
  match member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field %S" what name)

let typed_field ~kind convert ~what name json =
  Result.bind (field ~what name json) (fun v ->
      match convert v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "%s: %S is not %s" what name kind))

let int_field = typed_field ~kind:"an int" (function Int i -> Some i | _ -> None)

let number_field = typed_field ~kind:"a number" to_number

let string_field = typed_field ~kind:"a string" to_string_opt

let bool_field = typed_field ~kind:"a bool" (function Bool b -> Some b | _ -> None)
