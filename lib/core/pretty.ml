open Format

let pp_sep_semi ppf () = fprintf ppf ";@ "

let pp_block pp_item ppf = function
  | [] -> fprintf ppf "{@ }"
  | items -> fprintf ppf "{@;<1 4>@[<v>%a@]@ }" (pp_print_list ~pp_sep:pp_sep_semi pp_item) items

let pp_object_decl ppf (od : Ast.object_decl) =
  fprintf ppf "%s of class %s" od.od_name od.od_class

let pp_cond ppf = function
  | Ast.On_output name -> fprintf ppf " if output %s" name
  | Ast.On_input name -> fprintf ppf " if input %s" name
  | Ast.Any -> ()

let pp_notif_source ppf (ns : Ast.notif_source) =
  fprintf ppf "task %s%a" ns.ns_task pp_cond ns.ns_cond

let pp_object_source ppf (os : Ast.object_source) =
  fprintf ppf "%s of task %s%a" os.os_object os.os_task pp_cond os.os_cond

let pp_input_dep ppf = function
  | Ast.Dep_notification sources ->
    fprintf ppf "@[<v>notification from %a@]" (pp_block pp_notif_source) sources
  | Ast.Dep_object { d_name; d_sources; _ } ->
    fprintf ppf "@[<v>inputobject %s from %a@]" d_name (pp_block pp_object_source) d_sources

let pp_input_set_spec ppf (iss : Ast.input_set_spec) =
  fprintf ppf "@[<v>input %s %a@]" iss.iss_name (pp_block pp_input_dep) iss.iss_deps

(* The lexer has no escapes: a literal goes out verbatim between ASCII
   quotes, and [unreadable_literal] names the ones it cannot read back. *)
let pp_lit ppf s = fprintf ppf "\"%s\"" s

let pp_kv ppf (k, v) = fprintf ppf "%a is %a" pp_lit k pp_lit v

let pp_implementation ppf = function
  | [] -> ()
  | kvs ->
    fprintf ppf "implementation { %a };@ "
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp_kv)
      kvs

let pp_inputs_block ppf = function
  | [] -> ()
  | sets -> fprintf ppf "@[<v>inputs %a@];@ " (pp_block pp_input_set_spec) sets

let pp_recovery_clause ppf = function
  | Ast.R_retry { count; backoff; jitter; max; _ } ->
    fprintf ppf "retry %d" count;
    (match backoff with Some b -> fprintf ppf " backoff %d" b | None -> ());
    (match jitter with Some j -> fprintf ppf " jitter %d" j | None -> ());
    (match max with Some m -> fprintf ppf " max %d" m | None -> ())
  | Ast.R_timeout { ms; action; _ } -> (
    fprintf ppf "timeout %d then " ms;
    match action with
    | Ast.Ta_alternative -> fprintf ppf "alternative"
    | Ast.Ta_substitute code -> fprintf ppf "substitute %a" pp_lit code
    | Ast.Ta_abort -> fprintf ppf "abort")
  | Ast.R_alternative { codes; _ } ->
    fprintf ppf "alternative %a"
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp_lit)
      codes
  | Ast.R_compensate { task; _ } -> fprintf ppf "compensate %s" task

let pp_recovery_block ppf = function
  | [] -> ()
  | clauses ->
    fprintf ppf "recovery { %a };@ "
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf "; ") pp_recovery_clause)
      clauses

let pp_kind ppf kind = fprintf ppf "%s" (Ast.output_kind_to_string kind)

let pp_output_dep ppf = function
  | Ast.Out_notification sources ->
    fprintf ppf "@[<v>notification from %a@]" (pp_block pp_notif_source) sources
  | Ast.Out_object { o_name; o_sources; _ } ->
    fprintf ppf "@[<v>outputobject %s from %a@]" o_name (pp_block pp_object_source) o_sources

let pp_output_binding ppf (ob : Ast.output_binding) =
  fprintf ppf "@[<v>%a %s %a@]" pp_kind ob.ob_kind ob.ob_name (pp_block pp_output_dep) ob.ob_deps

let rec pp_task ppf (td : Ast.task_decl) =
  fprintf ppf "@[<v>task %s of taskclass %s {@;<1 4>@[<v>%a%a%a@]@ }@]" td.td_name td.td_class
    pp_implementation td.td_impl pp_recovery_block td.td_recovery pp_inputs_block td.td_inputs

and pp_compound ppf (cd : Ast.compound_decl) =
  fprintf ppf "@[<v>compoundtask %s of taskclass %s {@;<1 4>@[<v>%a%a%a%a%a@]@ }@]" cd.cd_name
    cd.cd_class pp_implementation cd.cd_impl pp_recovery_block cd.cd_recovery pp_inputs_block
    cd.cd_inputs pp_constituents cd.cd_constituents pp_outputs_block cd.cd_outputs

and pp_constituents ppf = function
  | [] -> ()
  | cs ->
    let pp_one ppf = function
      | Ast.C_task td -> pp_task ppf td
      | Ast.C_compound cd -> pp_compound ppf cd
      | Ast.C_template_inst ti -> pp_template_inst ppf ti
    in
    fprintf ppf "@[<v>%a@];@ " (pp_print_list ~pp_sep:pp_sep_semi pp_one) cs

and pp_template_inst ppf (ti : Ast.template_inst) =
  fprintf ppf "%s of tasktemplate %s(%a)" ti.ti_name ti.ti_template
    (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp_print_string)
    ti.ti_args

and pp_outputs_block ppf = function
  | [] -> ()
  | bindings -> fprintf ppf "@[<v>outputs %a@]" (pp_block pp_output_binding) bindings

let pp_input_set_decl ppf (isd : Ast.input_set_decl) =
  fprintf ppf "@[<v>input %s %a@]" isd.isd_name (pp_block pp_object_decl) isd.isd_objects

let pp_output_decl ppf (outd : Ast.output_decl) =
  fprintf ppf "@[<v>%a %s %a@]" pp_kind outd.outd_kind outd.outd_name (pp_block pp_object_decl)
    outd.outd_objects

let pp_taskclass ppf (tc : Ast.taskclass_decl) =
  fprintf ppf "@[<v>taskclass %s {@;<1 4>@[<v>inputs %a;@ outputs %a@]@ }@]" tc.tcd_name
    (pp_block pp_input_set_decl) tc.tcd_input_sets (pp_block pp_output_decl) tc.tcd_outputs

let pp_parameters ppf = function
  | [] -> ()
  | params ->
    fprintf ppf "parameters { %a };@ "
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf "; ") pp_print_string)
      params

let pp_template ppf (tpl : Ast.template_decl) =
  match tpl.tpl_body with
  | Ast.T_task td ->
    fprintf ppf "@[<v>tasktemplate task %s of taskclass %s {@;<1 4>@[<v>%a%a%a%a@]@ }@]"
      tpl.tpl_name td.td_class pp_parameters tpl.tpl_params pp_implementation td.td_impl
      pp_recovery_block td.td_recovery pp_inputs_block td.td_inputs
  | Ast.T_compound cd ->
    fprintf ppf
      "@[<v>tasktemplate compoundtask %s of taskclass %s {@;<1 4>@[<v>%a%a%a%a%a%a@]@ }@]"
      tpl.tpl_name cd.cd_class pp_parameters tpl.tpl_params pp_implementation cd.cd_impl
      pp_recovery_block cd.cd_recovery pp_inputs_block cd.cd_inputs pp_constituents
      cd.cd_constituents pp_outputs_block cd.cd_outputs

let pp_decl ppf = function
  | Ast.D_class { cls_name; cls_parent = None; _ } -> fprintf ppf "class %s" cls_name
  | Ast.D_class { cls_name; cls_parent = Some parent; _ } ->
    fprintf ppf "class %s extends %s" cls_name parent
  | Ast.D_taskclass tc -> pp_taskclass ppf tc
  | Ast.D_task td -> pp_task ppf td
  | Ast.D_compound cd -> pp_compound ppf cd
  | Ast.D_template tpl -> pp_template ppf tpl
  | Ast.D_template_inst ti -> pp_template_inst ppf ti

let pp_script ppf script =
  let pp_sep ppf () = fprintf ppf ";@ @ " in
  fprintf ppf "@[<v>%a@]@." (pp_print_list ~pp_sep pp_decl) script

let to_string script = Format.asprintf "%a" pp_script script

let literals_of_task impl recovery =
  List.concat_map (fun (k, v) -> [ k; v ]) impl
  @ List.concat_map
      (function
        | Ast.R_timeout { action = Ast.Ta_substitute code; _ } -> [ code ]
        | Ast.R_alternative { codes; _ } -> codes
        | _ -> [])
      recovery

let rec literals_of_compound (cd : Ast.compound_decl) =
  literals_of_task cd.cd_impl cd.cd_recovery
  @ List.concat_map
      (function
        | Ast.C_task td -> literals_of_task td.td_impl td.td_recovery
        | Ast.C_compound cd -> literals_of_compound cd
        | Ast.C_template_inst _ -> [])
      cd.cd_constituents

let unreadable_literal script =
  let literals = function
    | Ast.D_task td | Ast.D_template { tpl_body = Ast.T_task td; _ } ->
      literals_of_task td.td_impl td.td_recovery
    | Ast.D_compound cd | Ast.D_template { tpl_body = Ast.T_compound cd; _ } ->
      literals_of_compound cd
    | Ast.D_class _ | Ast.D_taskclass _ | Ast.D_template_inst _ -> []
  in
  List.find_opt (fun s -> not (Lexer.reads_back s)) (List.concat_map literals script)
