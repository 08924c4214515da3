exception Error of string * Loc.t

(* One index-based pass over the input. The state is the current line
   and the offset of its first byte, so a column is computed (and a
   [Loc.t] allocated) only where a token starts or an error is raised;
   columns count bytes from 1. *)
type state = { input : string; len : int; mutable line : int; mutable line_start : int }

let loc st i = { Loc.line = st.line; col = i - st.line_start + 1 }

let newline st i =
  st.line <- st.line + 1;
  st.line_start <- i + 1

let is_ident_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let is_ident_char c = is_ident_start c || is_digit c

(* The paper's PDF text uses curly quotes; the UTF-8 sequences for
   U+201C/U+201D and the ASCII quote all delimit strings. Length of the
   delimiter at [i] of [s], 0 for none. *)
let delimiter_len s len i =
  if i + 2 < len && s.[i] = '\xe2' && s.[i + 1] = '\x80'
     && (s.[i + 2] = '\x9c' || s.[i + 2] = '\x9d')
  then 3
  else if i < len && s.[i] = '"' then 1
  else 0

let reads_back s =
  let len = String.length s in
  let rec undelimited i = i >= len || (delimiter_len s len i = 0 && undelimited (i + 1)) in
  s = String.trim s && undelimited 0

let rec digits_end st i = if i < st.len && is_digit st.input.[i] then digits_end st (i + 1) else i

let rec ident_end st i =
  if i < st.len && is_ident_char st.input.[i] then ident_end st (i + 1) else i

let pair_at st i c1 c2 = i + 1 < st.len && st.input.[i] = c1 && st.input.[i + 1] = c2

let rec line_end st i = if i < st.len && st.input.[i] <> '\n' then line_end st (i + 1) else i

(* Index of the closing delimiter of a string whose body starts at [i]. *)
let rec string_end st at i =
  if delimiter_len st.input st.len i > 0 then i
  else if i >= st.len then raise (Error ("unterminated string", at))
  else (
    if st.input.[i] = '\n' then newline st i;
    string_end st at (i + 1))

(* Index just past the [*/] that closes a comment nested [depth] deep;
   [line] and [col] locate the outermost [/*] for the error. *)
let rec comment_end st ~line ~col depth i =
  if i >= st.len then raise (Error ("unterminated comment", { Loc.line; col }))
  else if pair_at st i '*' '/' then
    if depth > 1 then comment_end st ~line ~col (depth - 1) (i + 2) else i + 2
  else if pair_at st i '/' '*' then comment_end st ~line ~col (depth + 1) (i + 2)
  else (
    if st.input.[i] = '\n' then newline st i;
    comment_end st ~line ~col depth (i + 1))

let tokens input =
  let st = { input; len = String.length input; line = 1; line_start = 0 } in
  let acc = ref [] in
  let emit tok at = acc := (tok, at) :: !acc in
  let rec scan i =
    if i >= st.len then emit Token.Eof (loc st i)
    else
      match input.[i] with
      | ' ' | '\t' | '\r' -> scan (i + 1)
      | '\n' ->
        newline st i;
        scan (i + 1)
      | '/' when pair_at st i '/' '/' -> scan (line_end st i)
      | '/' when pair_at st i '/' '*' ->
        scan (comment_end st ~line:st.line ~col:(i - st.line_start + 1) 1 (i + 2))
      | '{' -> punct Token.Lbrace i
      | '}' -> punct Token.Rbrace i
      | '(' -> punct Token.Lparen i
      | ')' -> punct Token.Rparen i
      | ';' -> punct Token.Semi i
      | ',' -> punct Token.Comma i
      | '0' .. '9' ->
        let j = digits_end st i in
        if j < st.len && is_ident_start input.[j] then
          raise (Error (Printf.sprintf "malformed number ending in %C" input.[j], loc st i));
        (match int_of_string_opt (String.sub input i (j - i)) with
        | Some n -> emit (Token.Int n) (loc st i)
        | None -> raise (Error ("number out of range", loc st i)));
        scan j
      | c when is_ident_start c ->
        let j = ident_end st i in
        let word = String.sub input i (j - i) in
        let tok =
          match Token.keyword_of_string word with Some kw -> kw | None -> Token.Ident word
        in
        emit tok (loc st i);
        scan j
      | c ->
        let q = delimiter_len input st.len i in
        if q = 0 then raise (Error (Printf.sprintf "illegal character %C" c, loc st i));
        let at = loc st i in
        let stop = string_end st at (i + q) in
        (* implementation values in the paper carry stray spaces, e.g.
           “code ” — trim, they are never significant *)
        emit (Token.String (String.trim (String.sub input (i + q) (stop - i - q)))) at;
        scan (stop + delimiter_len input st.len stop)
  and punct tok i =
    emit tok (loc st i);
    scan (i + 1)
  in
  scan 0;
  List.rev !acc
