(** Convenience pipeline: parse → expand templates → validate → compile.

    This is the public entry point application code should use; the
    individual passes ({!Parser}, {!Template}, {!Validate}, {!Schema})
    remain available for tools that need intermediate results. *)

type error = { stage : string; msg : string; loc : Loc.t option }

val error_to_string : error -> string

val load : string -> (Ast.script, error) result
(** Parse, expand and validate a script source. Validation warnings are
    not errors; retrieve them with {!Validate.check} if needed. *)

val compile : string -> root:string -> (Schema.task, error) result
(** [load] then resolve the named top-level instance into a schema. *)

val roots : Ast.script -> string list
(** Names of top-level task/compound instances (schema roots). *)
