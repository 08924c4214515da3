(** Abstract syntax of the workflow scripting language (paper §4).

    A script is a sequence of declarations: opaque object [class]es,
    [taskclass]es (typed input sets and outputs), [task] instances
    (implementation binding + dependency specification), [compoundtask]
    instances (hierarchical composition with output mappings),
    [tasktemplate]s and their instantiations. *)

(** The four output types of §4.2 / Fig 2-3. *)
type output_kind =
  | Outcome  (** final result *)
  | Abort_outcome  (** terminated with no side effects; implies atomic *)
  | Repeat_outcome  (** restarts the task; objects private to the task *)
  | Mark  (** early-release intermediate output *)

type object_decl = { od_name : string; od_class : string; od_loc : Loc.t }
(** [name of class Class] inside input sets and outputs. *)

type input_set_decl = {
  isd_name : string;
  isd_objects : object_decl list;
  isd_loc : Loc.t;
}

type output_decl = {
  outd_kind : output_kind;
  outd_name : string;
  outd_objects : object_decl list;
  outd_loc : Loc.t;
}

type taskclass_decl = {
  tcd_name : string;
  tcd_input_sets : input_set_decl list;
  tcd_outputs : output_decl list;
  tcd_loc : Loc.t;
}

(** [if output oc] / [if input set] / no condition on a source. *)
type source_cond =
  | On_output of string
  | On_input of string
  | Any

type object_source = {
  os_object : string;  (** object name at the source task *)
  os_task : string;
  os_cond : source_cond;
  os_loc : Loc.t;
}
(** [obj of task T if output oc]. *)

type notif_source = { ns_task : string; ns_cond : source_cond; ns_loc : Loc.t }
(** [task T if output oc]. *)

(** One dependency inside an input set specification: either a
    notification (each with alternative sources) or a named input object
    (with alternative sources, in priority order). *)
type input_dep =
  | Dep_notification of notif_source list
  | Dep_object of { d_name : string; d_sources : object_source list; d_loc : Loc.t }

type input_set_spec = {
  iss_name : string;
  iss_deps : input_dep list;
  iss_loc : Loc.t;
}

type implementation = (string * string) list
(** [implementation { "code" is "X", "location" is "n1", ... }]. *)

(** What a [timeout t then ...] clause does when the watchdog fires. *)
type timeout_action =
  | Ta_alternative  (** fall over to the next ranked alternative code *)
  | Ta_substitute of string  (** dispatch this implementation code instead *)
  | Ta_abort  (** give up: fail the task through its abort path *)

(** One clause of a [recovery { ... }] section — the declarative
    recovery strategy (REL line of work), kept separate from the
    functional specification but compiled with it. *)
type recovery_clause =
  | R_retry of {
      count : int;
      backoff : int option;
      jitter : int option;
      max : int option;
      loc : Loc.t;
    }
      (** [retry n [backoff b [jitter j] [max m]]] — up to [n]
          re-dispatches per implementation code, delayed b*2^(attempt-1)
          ms capped at m, plus a deterministic seed-derived jitter in
          [0, j) ms to de-synchronise retry storms. *)
  | R_timeout of { ms : int; action : timeout_action; loc : Loc.t }
      (** [timeout t then ...] — per-attempt watchdog deadline in ms. *)
  | R_alternative of { codes : string list; loc : Loc.t }
      (** [alternative "c1", "c2"] — ranked fallback implementation codes
          tried after the primary's retry budget is exhausted. *)
  | R_compensate of { task : string; loc : Loc.t }
      (** [compensate t] — run sibling task [t]'s implementation once if
          this task concludes through an abort outcome. *)

type recovery = recovery_clause list

type task_decl = {
  td_name : string;
  td_class : string;
  td_impl : implementation;
  td_recovery : recovery;
  td_inputs : input_set_spec list;
  td_loc : Loc.t;
}

(** An output mapping clause of a compound task: when can the compound
    produce this output and where do its objects come from. *)
type output_binding = {
  ob_kind : output_kind;
  ob_name : string;
  ob_deps : output_dep list;
  ob_loc : Loc.t;
}

and output_dep =
  | Out_notification of notif_source list
  | Out_object of { o_name : string; o_sources : object_source list; o_loc : Loc.t }

and compound_decl = {
  cd_name : string;
  cd_class : string;
  cd_impl : implementation;  (** usually empty; kept for uniformity *)
  cd_recovery : recovery;
  cd_inputs : input_set_spec list;  (** empty when used as an implementation *)
  cd_constituents : constituent list;
  cd_outputs : output_binding list;
  cd_loc : Loc.t;
}

and constituent =
  | C_task of task_decl
  | C_compound of compound_decl
  | C_template_inst of template_inst

and template_inst = {
  ti_name : string;
  ti_template : string;
  ti_args : string list;
  ti_loc : Loc.t;
}
(** [name of tasktemplate tmpl(arg1, arg2)]. *)

type template_decl = {
  tpl_name : string;
  tpl_params : string list;
  tpl_body : template_body;
  tpl_loc : Loc.t;
}

and template_body =
  | T_task of task_decl
  | T_compound of compound_decl

type decl =
  | D_class of { cls_name : string; cls_parent : string option; cls_loc : Loc.t }
      (** [class Sub extends Super]: the optional parent enables the
          sub-typing extension the paper sketches as future work (§7) —
          an object of a subclass is accepted wherever the superclass is
          expected. *)
  | D_taskclass of taskclass_decl
  | D_task of task_decl
  | D_compound of compound_decl
  | D_template of template_decl
  | D_template_inst of template_inst

type script = decl list

(** {1 Accessors} *)

val decl_name : decl -> string

val constituent_name : constituent -> string

val constituent_loc : constituent -> Loc.t

val impl_code : implementation -> string option
(** The ["code"] binding, if present. *)

val impl_location : implementation -> string option
(** The ["location"] binding (hosting node), if present. *)

val recovery_clause_loc : recovery_clause -> Loc.t

val recovery_retry : recovery -> (int * int option * int option) option
(** The [retry] clause as [(count, backoff, max)], if declared. *)

val recovery_retry_jitter : recovery -> int option
(** The [jitter] slot of the [retry] clause, if declared. *)

val recovery_timeout : recovery -> (int * timeout_action) option
(** The [timeout] clause as [(ms, action)], if declared. *)

val recovery_alternatives : recovery -> string list
(** Ranked fallback implementation codes, declaration order. *)

val recovery_compensate : recovery -> string option
(** The compensation target task, if declared. *)

val output_kind_to_string : output_kind -> string

val classes : script -> string list

val class_parents : script -> (string * string option) list
(** Every declared class with its declared parent (subtyping). *)

val taskclasses : script -> taskclass_decl list

val find_taskclass : script -> string -> taskclass_decl option

val find_output : taskclass_decl -> string -> output_decl option

val find_input_set : taskclass_decl -> string -> input_set_decl option
