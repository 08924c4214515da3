type output_kind =
  | Outcome
  | Abort_outcome
  | Repeat_outcome
  | Mark

type object_decl = { od_name : string; od_class : string; od_loc : Loc.t }

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

type source_cond =
  | On_output of string
  | On_input of string
  | Any

type object_source = {
  os_object : string;
  os_task : string;
  os_cond : source_cond;
  os_loc : Loc.t;
}

type notif_source = { ns_task : string; ns_cond : source_cond; ns_loc : Loc.t }

type input_dep =
  | Dep_notification of notif_source list
  | Dep_object of { d_name : string; d_sources : object_source list; d_loc : Loc.t }

type input_set_spec = {
  iss_name : string;
  iss_deps : input_dep list;
  iss_loc : Loc.t;
}

type implementation = (string * string) list

(* Declarative recovery strategy (REL-style): a recovery { ... } section
   attached to a task or compound, kept separate from the functional
   specification but compiled with it. *)
type timeout_action =
  | Ta_alternative  (** fall over to the next ranked alternative code *)
  | Ta_substitute of string  (** dispatch this implementation code instead *)
  | Ta_abort  (** give up: fail the task through its abort path *)

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
  cd_impl : implementation;
  cd_recovery : recovery;
  cd_inputs : input_set_spec list;
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
  | D_taskclass of taskclass_decl
  | D_task of task_decl
  | D_compound of compound_decl
  | D_template of template_decl
  | D_template_inst of template_inst

type script = decl list

let decl_name = function
  | D_class { cls_name; _ } -> cls_name
  | D_taskclass { tcd_name; _ } -> tcd_name
  | D_task { td_name; _ } -> td_name
  | D_compound { cd_name; _ } -> cd_name
  | D_template { tpl_name; _ } -> tpl_name
  | D_template_inst { ti_name; _ } -> ti_name

let constituent_name = function
  | C_task { td_name; _ } -> td_name
  | C_compound { cd_name; _ } -> cd_name
  | C_template_inst { ti_name; _ } -> ti_name

let constituent_loc = function
  | C_task { td_loc; _ } -> td_loc
  | C_compound { cd_loc; _ } -> cd_loc
  | C_template_inst { ti_loc; _ } -> ti_loc

let impl_code impl = List.assoc_opt "code" impl

let recovery_clause_loc = function
  | R_retry { loc; _ } | R_timeout { loc; _ } | R_alternative { loc; _ } | R_compensate { loc; _ }
    ->
    loc

let recovery_retry rc =
  List.find_map (function R_retry r -> Some (r.count, r.backoff, r.max) | _ -> None) rc

let recovery_retry_jitter rc =
  List.find_map (function R_retry r -> r.jitter | _ -> None) rc

let recovery_timeout rc =
  List.find_map (function R_timeout t -> Some (t.ms, t.action) | _ -> None) rc

let recovery_alternatives rc =
  List.concat_map (function R_alternative a -> a.codes | _ -> []) rc

let recovery_compensate rc =
  List.find_map (function R_compensate c -> Some c.task | _ -> None) rc

let impl_location impl = List.assoc_opt "location" impl

let output_kind_to_string = function
  | Outcome -> "outcome"
  | Abort_outcome -> "abort outcome"
  | Repeat_outcome -> "repeat outcome"
  | Mark -> "mark"

let classes script =
  List.filter_map (function D_class { cls_name; _ } -> Some cls_name | _ -> None) script

let class_parents script =
  List.filter_map
    (function D_class { cls_name; cls_parent; _ } -> Some (cls_name, cls_parent) | _ -> None)
    script

let taskclasses script =
  List.filter_map (function D_taskclass tc -> Some tc | _ -> None) script

let find_taskclass script name =
  List.find_opt (fun tc -> tc.tcd_name = name) (taskclasses script)

let find_output tc name = List.find_opt (fun o -> o.outd_name = name) tc.tcd_outputs

let find_input_set tc name = List.find_opt (fun s -> s.isd_name = name) tc.tcd_input_sets
