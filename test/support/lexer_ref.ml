(* Reference lexer for the differential property in test_lang.ml: the
   byte-at-a-time scanner that lib/core/lexer.ml replaced, kept as it
   was. Both must produce the same tokens and locations, or the same
   error at the same location, for every input. *)

exception Error of string * Loc.t

type state = {
  input : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let loc st = { Loc.line = st.line; col = st.col }

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.input then Some st.input.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

(* The paper's PDF text uses curly quotes; map the UTF-8 sequences for
   U+201C/U+201D (and the ASCII quote) to a single string delimiter. *)
let smart_quote_len st =
  let s = st.input and i = st.pos in
  if i + 2 < String.length s && s.[i] = '\xe2' && s.[i + 1] = '\x80'
     && (s.[i + 2] = '\x9c' || s.[i + 2] = '\x9d')
  then Some 3
  else if i < String.length s && s.[i] = '"' then Some 1
  else None

let skip_quote st n =
  for _ = 1 to n do
    advance st
  done

let read_string st =
  let start = loc st in
  (match smart_quote_len st with
  | Some n -> skip_quote st n
  | None -> raise (Error ("expected string", start)));
  let buf = Buffer.create 16 in
  let rec consume () =
    match smart_quote_len st with
    | Some n -> skip_quote st n
    | None -> (
      match peek st with
      | None -> raise (Error ("unterminated string", start))
      | Some c ->
        Buffer.add_char buf c;
        advance st;
        consume ())
  in
  consume ();
  (* implementation values in the paper carry stray spaces, e.g.
     “code ” — trim, they are never significant *)
  Token.String (String.trim (Buffer.contents buf))

let is_digit c = c >= '0' && c <= '9'

let read_number st at =
  let buf = Buffer.create 8 in
  let rec consume () =
    match peek st with
    | Some c when is_digit c ->
      Buffer.add_char buf c;
      advance st;
      consume ()
    | Some c when is_ident_start c ->
      raise (Error (Printf.sprintf "malformed number ending in %C" c, at))
    | Some _ | None -> ()
  in
  consume ();
  match int_of_string_opt (Buffer.contents buf) with
  | Some n -> Token.Int n
  | None -> raise (Error ("number out of range", at))

let read_ident st =
  let buf = Buffer.create 16 in
  let rec consume () =
    match peek st with
    | Some c when is_ident_char c ->
      Buffer.add_char buf c;
      advance st;
      consume ()
    | Some _ | None -> ()
  in
  consume ();
  Buffer.contents buf

let rec skip_block_comment st start depth =
  match (peek st, peek2 st) with
  | Some '*', Some '/' ->
    advance st;
    advance st;
    if depth > 1 then skip_block_comment st start (depth - 1)
  | Some '/', Some '*' ->
    advance st;
    advance st;
    skip_block_comment st start (depth + 1)
  | Some _, _ ->
    advance st;
    skip_block_comment st start depth
  | None, _ -> raise (Error ("unterminated comment", start))

let rec skip_line_comment st =
  match peek st with
  | Some '\n' | None -> ()
  | Some _ ->
    advance st;
    skip_line_comment st

let tokens input =
  let st = { input; pos = 0; line = 1; col = 1 } in
  let acc = ref [] in
  let emit tok at = acc := (tok, at) :: !acc in
  let rec scan () =
    let at = loc st in
    match peek st with
    | None -> emit Token.Eof at
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      scan ()
    | Some '/' when peek2 st = Some '/' ->
      skip_line_comment st;
      scan ()
    | Some '/' when peek2 st = Some '*' ->
      advance st;
      advance st;
      skip_block_comment st at 1;
      scan ()
    | Some '{' ->
      advance st;
      emit Token.Lbrace at;
      scan ()
    | Some '}' ->
      advance st;
      emit Token.Rbrace at;
      scan ()
    | Some '(' ->
      advance st;
      emit Token.Lparen at;
      scan ()
    | Some ')' ->
      advance st;
      emit Token.Rparen at;
      scan ()
    | Some ';' ->
      advance st;
      emit Token.Semi at;
      scan ()
    | Some ',' ->
      advance st;
      emit Token.Comma at;
      scan ()
    | Some c when is_digit c ->
      emit (read_number st at) at;
      scan ()
    | Some c when is_ident_start c ->
      let word = read_ident st in
      let tok =
        match Token.keyword_of_string word with Some kw -> kw | None -> Token.Ident word
      in
      emit tok at;
      scan ()
    | Some _ -> (
      match smart_quote_len st with
      | Some _ ->
        emit (read_string st) at;
        scan ()
      | None -> raise (Error (Printf.sprintf "illegal character %C" input.[st.pos], at)))
  in
  scan ();
  List.rev !acc
