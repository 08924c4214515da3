(** Standard dynamic-reconfiguration transforms (paper §3 and [7]):
    add/remove tasks and dependencies of a running application. Each is
    a pure AST transform to feed {!Engine.reconfigure}; the engine
    re-validates and persists the result atomically. *)

val add_constituent :
  scope:string list -> decl:string -> Ast.script -> (Ast.script, string) result
(** [add_constituent ~scope ~decl script] parses [decl] (one [task] or
    [compoundtask] declaration) and appends it to the compound at
    [scope] — a path of task names starting at the top-level instance,
    e.g. [["processOrderApplication"]]. *)

val remove_constituent :
  scope:string list -> name:string -> Ast.script -> (Ast.script, string) result

val add_object_source :
  scope:string list ->
  task:string ->
  input_set:string ->
  input_object:string ->
  source:string ->
  Ast.script ->
  (Ast.script, string) result
(** Append an alternative source to an input object of a constituent.
    [source] uses concrete syntax, e.g. ["o1 of task t4 if output oc1"].
    If the input object has no dependency clause yet, one is created. *)

val add_notification :
  scope:string list ->
  task:string ->
  input_set:string ->
  sources:string ->
  Ast.script ->
  (Ast.script, string) result
(** Add a whole notification dependency (one more conjunct), with
    [sources] in concrete syntax, e.g.
    ["task t2 if output done; task t3 if output done"]. *)

val remove_notification :
  scope:string list ->
  task:string ->
  input_set:string ->
  source_task:string ->
  Ast.script ->
  (Ast.script, string) result
(** Remove every notification alternative that names [source_task]
    (dropping a notification dependency entirely when it empties). *)

val rebind_implementation :
  scope:string list -> task:string -> code:string -> Ast.script -> (Ast.script, string) result
(** Point a constituent's ["code"] binding at a different implementation
    name (script-level online upgrade). *)

val rewrite :
  script:string ->
  root:string ->
  transform:(Ast.script -> (Ast.script, string) result) ->
  (string * Schema.task, string) result
(** Parse [script], apply [transform], re-expand, re-validate and
    re-resolve [root]; returns the pretty-printed new script text and
    its schema. The engine persists the text and swaps the schema in
    atomically. A string literal the printed text cannot carry (see
    {!Pretty.unreadable_literal}) is an [Error]: recovery recompiles
    the persisted text and must get the same schema back. *)
