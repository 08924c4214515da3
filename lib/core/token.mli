(** Lexical tokens of the workflow scripting language. *)

type t =
  | Ident of string
  | String of string  (** double-quoted literal, e.g. implementation values *)
  | Int of int  (** decimal literal, used by recovery clauses *)
  | Kw_class
  | Kw_taskclass
  | Kw_task
  | Kw_compoundtask
  | Kw_tasktemplate
  | Kw_inputs
  | Kw_outputs
  | Kw_input
  | Kw_output
  | Kw_inputobject
  | Kw_outputobject
  | Kw_outcome
  | Kw_abort
  | Kw_repeat
  | Kw_mark
  | Kw_notification
  | Kw_from
  | Kw_of
  | Kw_if
  | Kw_is
  | Kw_implementation
  | Kw_parameters
  | Kw_extends
  | Kw_recovery
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Semi
  | Comma
  | Eof

val keyword_of_string : string -> t option

val to_string : t -> string
