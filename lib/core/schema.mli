(** Executable schema: the resolved form of a validated script that the
    execution service interprets.

    A schema is a tree of task definitions rooted at one top-level
    instance. Simple tasks carry their implementation binding; compound
    tasks carry their children and output bindings. All names are
    taken verbatim from the script — resolution against taskclasses has
    already happened, so every input object knows its class and every
    source is structurally meaningful. *)

type cond =
  | C_output of string
  | C_input of string
  | C_any

type obj_source = { s_task : string; s_obj : string; s_cond : cond }

type notif_source = { n_task : string; n_cond : cond }

type input_object = {
  io_name : string;
  io_class : string;
  io_sources : obj_source list;
      (** priority-ordered alternatives; empty = supplied externally *)
}

type input_set = {
  is_name : string;
  is_notifications : notif_source list list;
      (** one element per notification dependency, each a list of
          alternatives *)
  is_objects : input_object list;
}

type output = {
  out_kind : Ast.output_kind;
  out_name : string;
  out_objects : (string * string) list;  (** object name, class *)
}

type binding = {
  b_name : string;
  b_kind : Ast.output_kind;
  b_notifications : notif_source list list;
  b_objects : (string * obj_source list) list;
}

type policy = {
  p_retry : int option;  (** extra attempts per implementation code *)
  p_backoff_ms : int;  (** base delay before a policy retry; 0 = immediate *)
  p_jitter_ms : int;
      (** seed-derived spread in [0, j) ms added to each backoff delay;
          0 = none *)
  p_backoff_max_ms : int option;  (** cap on the exponential backoff *)
  p_timeout_ms : int option;  (** per-attempt watchdog deadline *)
  p_on_timeout : Ast.timeout_action;  (** what the watchdog does *)
  p_alternatives : string list;  (** ranked fallback implementation codes *)
  p_compensate : string option;  (** sibling task run once on abort *)
  p_declared : bool;  (** was a recovery section written at all *)
}
(** Compiled recovery policy of one task. When [p_declared] is false the
    engine substitutes its config-seeded default policy, reproducing the
    pre-policy global-knob behaviour exactly. *)

val no_policy : policy
(** The compiled form of "no recovery section". *)

type task = {
  name : string;
  klass : string;
  impl : (string * string) list;
  policy : policy;
  inputs : input_set list;
  outputs : output list;
  body : body;
}

and body =
  | Simple
  | Compound of { children : task list; bindings : binding list }

val of_script : Ast.script -> root:string -> (task, string) result
(** Resolve the top-level instance [root]. The script must already be
    template-expanded and error-free per {!Validate}. *)

val find_child : task -> string -> task option

val is_atomic : task -> bool
(** A task is atomic iff its class declares an abort outcome. *)

val output_named : task -> string -> output option

val input_set_named : task -> string -> input_set option

val task_count : task -> int
(** Total number of task definitions in the tree, root included. *)
