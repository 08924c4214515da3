(** Hand-written lexer for workflow scripts.

    Accepts identifiers, double-quoted strings, punctuation, and both
    comment styles ([// ...] to end of line and [/* ... */], nestable).
    Curly/smart quotes from the paper's typesetting are accepted as
    plain double quotes so examples can be pasted verbatim. *)

exception Error of string * Loc.t

val tokens : string -> (Token.t * Loc.t) list
(** Tokenize a whole script; the list always ends with [Token.Eof].
    Raises {!Error} on an unterminated string/comment, a malformed or
    out-of-range number, or an illegal character. A location's column
    counts bytes from 1.

    Cost: one pass, O(bytes) time. It allocates only for tokens: the
    list cell, the [Loc.t] and the token, plus one [String.sub] for an
    identifier, number or string. Whitespace and comments allocate
    nothing. *)

val reads_back : string -> bool
(** Whether a string literal with this content, written between ASCII
    quotes, lexes back to the same [Token.String]: it holds no string
    delimiter and no leading or trailing whitespace (literals are
    trimmed). There is no escape syntax. *)
