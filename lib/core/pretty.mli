(** Pretty-printer: renders an AST back to concrete syntax.

    [Parser.script (to_string s)] re-parses to an equal AST (modulo
    locations) — the formatter for the [fmt] CLI command and the
    canonical form the repository service stores. String literals are
    printed verbatim between ASCII quotes, as the lexer has no escape
    syntax; the round trip holds when {!unreadable_literal} is [None]. *)

val to_string : Ast.script -> string

val unreadable_literal : Ast.script -> string option
(** The first string literal the lexer cannot read back from
    {!to_string} (see {!Lexer.reads_back}): one that contains an ASCII
    or UTF-8 curly quote, or has leading or trailing whitespace. *)
