type severity = Error | Warning

type issue = { severity : severity; msg : string; loc : Loc.t }

type env = {
  classes : string list;
  parents : (string * string option) list;  (* subtyping: class -> declared parent *)
  taskclasses : (string * Ast.taskclass_decl) list;
  mutable rev_issues : issue list;
}

let report env severity loc fmt =
  Format.kasprintf (fun msg -> env.rev_issues <- { severity; msg; loc } :: env.rev_issues) fmt

let error env loc fmt = report env Error loc fmt

let warning env loc fmt = report env Warning loc fmt

let find_class env name = List.mem name env.classes

(* [subtype_of env sub sup]: walking [sub]'s parent chain reaches [sup].
   Fuelled so that an (independently reported) inheritance cycle cannot
   loop the checker. *)
let subtype_of env sub sup =
  let rec climb name fuel =
    fuel > 0
    && (name = sup
       ||
       match List.assoc_opt name env.parents with
       | Some (Some parent) -> climb parent (fuel - 1)
       | Some None | None -> false)
  in
  climb sub (List.length env.parents + 1)

let check_class_hierarchy env =
  let check (name, parent) =
    match parent with
    | None -> ()
    | Some parent ->
      if not (find_class env parent) then
        error env Loc.dummy "class %s extends unknown class %s" name parent
      else if subtype_of env parent name && parent <> name then
        error env Loc.dummy "inheritance cycle through class %s" name
  in
  List.iter check env.parents;
  List.iter
    (fun (name, parent) ->
      if parent = Some name then error env Loc.dummy "class %s extends itself" name)
    env.parents

let find_taskclass env name = List.assoc_opt name env.taskclasses

(* --- duplicate detection --- *)

let check_duplicates env ~what ~loc_of names =
  let seen = Hashtbl.create 8 in
  let check (name, loc) =
    if Hashtbl.mem seen name then error env (loc_of (name, loc)) "duplicate %s %s" what name
    else Hashtbl.add seen name ()
  in
  List.iter check names

let check_named_duplicates env ~what pairs =
  check_duplicates env ~what ~loc_of:(fun (_, loc) -> loc) pairs

(* --- taskclass declarations --- *)

let check_object_decls env decls =
  let check (od : Ast.object_decl) =
    if not (find_class env od.od_class) then
      error env od.od_loc "unknown class %s (object %s)" od.od_class od.od_name
  in
  check_named_duplicates env ~what:"object"
    (List.map (fun (od : Ast.object_decl) -> (od.od_name, od.od_loc)) decls);
  List.iter check decls

let check_taskclass env (tc : Ast.taskclass_decl) =
  check_named_duplicates env ~what:"input set"
    (List.map (fun (s : Ast.input_set_decl) -> (s.isd_name, s.isd_loc)) tc.tcd_input_sets);
  List.iter (fun (s : Ast.input_set_decl) -> check_object_decls env s.isd_objects) tc.tcd_input_sets;
  check_named_duplicates env ~what:"output"
    (List.map (fun (o : Ast.output_decl) -> (o.outd_name, o.outd_loc)) tc.tcd_outputs);
  List.iter (fun (o : Ast.output_decl) -> check_object_decls env o.outd_objects) tc.tcd_outputs;
  let has kind = List.exists (fun (o : Ast.output_decl) -> o.outd_kind = kind) tc.tcd_outputs in
  if has Ast.Abort_outcome && has Ast.Mark then
    error env tc.tcd_loc
      "taskclass %s declares both an abort outcome (atomic) and a mark (atomic tasks cannot release early results)"
      tc.tcd_name

(* --- source resolution ---

   [scope] maps every task name visible at this point to its taskclass
   name. [self] is the instance being validated (for private repeat
   outcomes). [expect] is [Some (obj, class)] for dataflow sources and
   [None] for notifications. *)

type source_site = { scope : (string * string) list; self : string }

let output_carries env (out : Ast.output_decl) ~obj ~cls =
  List.exists
    (fun (od : Ast.object_decl) -> od.od_name = obj && subtype_of env od.od_class cls)
    out.outd_objects

let check_source env site ~expect ~task ~cond ~loc =
  match List.assoc_opt task site.scope with
  | None -> error env loc "unknown task %s in source" task
  | Some class_name -> (
    match find_taskclass env class_name with
    | None -> () (* unknown taskclass reported where the instance was declared *)
    | Some tc -> (
      let check_object_in objects ~where =
        match expect with
        | None -> ()
        | Some (obj, cls) -> (
          match List.find_opt (fun (od : Ast.object_decl) -> od.od_name = obj) objects with
          | None -> error env loc "task %s has no object %s in %s" task obj where
          | Some od ->
            if not (subtype_of env od.Ast.od_class cls) then
              error env loc "class mismatch: %s.%s is of class %s, expected %s (or a subclass)"
                task obj od.Ast.od_class cls)
      in
      match cond with
      | Ast.On_output oc -> (
        match Ast.find_output tc oc with
        | None -> error env loc "task %s (taskclass %s) has no output %s" task class_name oc
        | Some out ->
          if out.outd_kind = Ast.Repeat_outcome && task <> site.self then
            error env loc
              "repeat outcome %s of task %s is private to that task and cannot be used here" oc task;
          check_object_in out.outd_objects ~where:("output " ^ oc))
      | Ast.On_input set -> (
        match Ast.find_input_set tc set with
        | None -> error env loc "task %s (taskclass %s) has no input set %s" task class_name set
        | Some isd -> check_object_in isd.isd_objects ~where:("input set " ^ set))
      | Ast.Any -> (
        match expect with
        | None -> ()
        | Some (obj, cls) ->
          let usable (out : Ast.output_decl) =
            out.outd_kind <> Ast.Repeat_outcome && output_carries env out ~obj ~cls
          in
          if not (List.exists usable tc.tcd_outputs) then
            error env loc "no output of task %s carries an object %s of class %s" task obj cls)))

let check_notif_sources env site sources ~loc =
  if sources = [] then error env loc "notification dependency with no sources";
  List.iter
    (fun (ns : Ast.notif_source) ->
      check_source env site ~expect:None ~task:ns.ns_task ~cond:ns.ns_cond ~loc:ns.ns_loc)
    sources

let check_object_sources env site sources ~expect ~loc =
  if sources = [] then error env loc "input object dependency with no sources";
  List.iter
    (fun (os : Ast.object_source) ->
      check_source env site
        ~expect:(Some (os.Ast.os_object, snd (Option.get expect)))
        ~task:os.os_task ~cond:os.os_cond ~loc:os.os_loc)
    sources

(* --- recovery clauses --- *)

(* [siblings]: the other constituents of the compound that declares the
   task, or [] at top level. The engine resolves [compensate t] as the
   sibling path [parent @ [t]], so any other target would never run. *)
let check_recovery env site ~siblings ~impl ~recovery ~self_loc:_ =
  let count_kind pred = List.length (List.filter pred recovery) in
  let dup_check ~what pred =
    if count_kind pred > 1 then
      let clause = List.find pred recovery in
      error env (Ast.recovery_clause_loc clause) "duplicate %s clause in recovery section" what
  in
  dup_check ~what:"retry" (function Ast.R_retry _ -> true | _ -> false);
  dup_check ~what:"timeout" (function Ast.R_timeout _ -> true | _ -> false);
  dup_check ~what:"compensate" (function Ast.R_compensate _ -> true | _ -> false);
  let has_alternatives = Ast.recovery_alternatives recovery <> [] in
  let check_clause = function
    | Ast.R_retry { count; backoff; jitter; max; loc } ->
      if count = 0 && backoff <> None then
        error env loc "retry 0 cannot take a backoff (there is no retry to delay)";
      (match (backoff, max) with
      | None, Some _ -> error env loc "max requires a backoff base"
      | Some b, Some m when m < b ->
        error env loc "backoff cap %d is below the base delay %d" m b
      | _ -> ());
      (match (backoff, jitter) with
      | None, Some _ -> error env loc "jitter requires a backoff base"
      | Some b, Some j when j >= b ->
        error env loc
          "jitter %d must be below the backoff base %d (the jitter spreads a delay, it must \
           not dominate it)" j b
      | _ -> ())
    | Ast.R_timeout { ms; action; loc } -> (
      (if action = Ast.Ta_alternative && not has_alternatives then
         error env loc "timeout ... then alternative requires an alternative clause");
      (match List.assoc_opt "duration" impl with
      | Some dur -> (
        match int_of_string_opt dur with
        | Some d when ms < d ->
          error env loc "timeout %dms is shorter than the declared duration %dms" ms d
        | _ -> ())
      | None -> ());
      match action with
      | Ast.Ta_substitute "" -> error env loc "substitute requires a non-empty implementation code"
      | _ -> ())
    | Ast.R_alternative { codes; loc } ->
      if List.exists (fun c -> c = "") codes then
        error env loc "alternative implementation codes must be non-empty"
    | Ast.R_compensate { task; loc } ->
      if task = site.self then error env loc "task %s cannot compensate itself" task
      else if List.assoc_opt task site.scope = None then
        error env loc "compensate names undeclared task %s" task
      else if not (List.mem task siblings) then
        error env loc
          "compensate %s: the target must be another constituent of the same compound as %s"
          task site.self
  in
  List.iter check_clause recovery

(* --- instance input sets --- *)

let check_input_sets env site ~class_name ~inputs ~loc =
  match find_taskclass env class_name with
  | None -> error env loc "unknown taskclass %s" class_name
  | Some tc ->
    check_named_duplicates env ~what:"input set specification"
      (List.map (fun (iss : Ast.input_set_spec) -> (iss.iss_name, iss.iss_loc)) inputs);
    let check_set (iss : Ast.input_set_spec) =
      match Ast.find_input_set tc iss.iss_name with
      | None ->
        error env iss.iss_loc "taskclass %s declares no input set %s" class_name iss.iss_name
      | Some isd ->
        let object_deps =
          List.filter_map
            (function
              | Ast.Dep_object { d_name; d_sources; d_loc } -> Some (d_name, d_sources, d_loc)
              | Ast.Dep_notification _ -> None)
            iss.iss_deps
        in
        check_named_duplicates env ~what:"input object specification"
          (List.map (fun (n, _, l) -> (n, l)) object_deps);
        (* every specified object must be declared by the class *)
        let check_declared (name, _, dep_loc) =
          if not (List.exists (fun (od : Ast.object_decl) -> od.od_name = name) isd.isd_objects)
          then
            error env dep_loc "input set %s of taskclass %s declares no object %s" iss.iss_name
              class_name name
        in
        List.iter check_declared object_deps;
        (* unsourced declared objects must come from outside (root tasks) *)
        let unsourced (od : Ast.object_decl) =
          not (List.exists (fun (n, _, _) -> n = od.od_name) object_deps)
        in
        List.iter
          (fun od ->
            if unsourced od then
              warning env iss.iss_loc
                "input object %s.%s has no sources; it must be supplied externally" iss.iss_name
                od.Ast.od_name)
          isd.isd_objects;
        (* resolve every source *)
        let check_dep = function
          | Ast.Dep_notification sources -> check_notif_sources env site sources ~loc:iss.iss_loc
          | Ast.Dep_object { d_name; d_sources; d_loc } -> (
            match List.find_opt (fun (od : Ast.object_decl) -> od.od_name = d_name) isd.isd_objects with
            | None -> () (* undeclared object reported above *)
            | Some od ->
              check_object_sources env site d_sources
                ~expect:(Some (d_name, od.Ast.od_class))
                ~loc:d_loc)
        in
        List.iter check_dep iss.iss_deps
    in
    List.iter check_set inputs

(* --- compound outputs --- *)

let check_output_bindings env site ~class_name ~bindings =
  match find_taskclass env class_name with
  | None -> ()
  | Some tc ->
    check_named_duplicates env ~what:"output binding"
      (List.map (fun (ob : Ast.output_binding) -> (ob.ob_name, ob.ob_loc)) bindings);
    let check_binding (ob : Ast.output_binding) =
      match Ast.find_output tc ob.ob_name with
      | None ->
        error env ob.ob_loc "taskclass %s declares no output %s" class_name ob.ob_name
      | Some out ->
        if out.outd_kind <> ob.ob_kind then
          error env ob.ob_loc "output %s is declared as %s but bound as %s" ob.ob_name
            (Ast.output_kind_to_string out.outd_kind)
            (Ast.output_kind_to_string ob.ob_kind);
        let bound_objects =
          List.filter_map
            (function
              | Ast.Out_object { o_name; o_sources; o_loc } -> Some (o_name, o_sources, o_loc)
              | Ast.Out_notification _ -> None)
            ob.ob_deps
        in
        check_named_duplicates env ~what:"output object binding"
          (List.map (fun (n, _, l) -> (n, l)) bound_objects);
        let check_declared (name, _, dep_loc) =
          if not (List.exists (fun (od : Ast.object_decl) -> od.od_name = name) out.outd_objects)
          then error env dep_loc "output %s declares no object %s" ob.ob_name name
        in
        List.iter check_declared bound_objects;
        List.iter
          (fun (od : Ast.object_decl) ->
            if not (List.exists (fun (n, _, _) -> n = od.od_name) bound_objects) then
              error env ob.ob_loc "output object %s.%s of the compound task has no sources"
                ob.ob_name od.Ast.od_name)
          out.outd_objects;
        let check_dep = function
          | Ast.Out_notification sources -> check_notif_sources env site sources ~loc:ob.ob_loc
          | Ast.Out_object { o_name; o_sources; o_loc } -> (
            match List.find_opt (fun (od : Ast.object_decl) -> od.od_name = o_name) out.outd_objects with
            | None -> ()
            | Some od ->
              check_object_sources env site o_sources
                ~expect:(Some (o_name, od.Ast.od_class))
                ~loc:o_loc)
        in
        List.iter check_dep ob.ob_deps
    in
    List.iter check_binding bindings;
    (* outcomes never produced are suspicious but legal *)
    List.iter
      (fun (out : Ast.output_decl) ->
        if
          out.outd_kind <> Ast.Repeat_outcome
          && not (List.exists (fun (ob : Ast.output_binding) -> ob.ob_name = out.outd_name) bindings)
        then
          warning env out.outd_loc "compound task never produces declared output %s" out.outd_name)
      tc.tcd_outputs

(* every constituent name referenced by some sibling dependency or some
   output binding of the compound *)
let referenced_constituents (cd : Ast.compound_decl) =
  let from_sources sources = List.map (fun (os : Ast.object_source) -> os.os_task) sources in
  let from_notifs sources = List.map (fun (ns : Ast.notif_source) -> ns.ns_task) sources in
  let from_inputs inputs =
    List.concat_map
      (fun (iss : Ast.input_set_spec) ->
        List.concat_map
          (function
            | Ast.Dep_notification l -> from_notifs l
            | Ast.Dep_object { d_sources; _ } -> from_sources d_sources)
          iss.iss_deps)
      inputs
  in
  (* a compensation target counts as referenced: the compensating task
     is typically fed by nobody and fired only through the policy *)
  let from_constituent = function
    | Ast.C_task td ->
      Option.to_list (Ast.recovery_compensate td.Ast.td_recovery) @ from_inputs td.Ast.td_inputs
    | Ast.C_compound inner ->
      Option.to_list (Ast.recovery_compensate inner.Ast.cd_recovery)
      @ from_inputs inner.Ast.cd_inputs
    | Ast.C_template_inst _ -> []
  in
  let from_bindings =
    List.concat_map
      (fun (ob : Ast.output_binding) ->
        List.concat_map
          (function
            | Ast.Out_notification l -> from_notifs l
            | Ast.Out_object { o_sources; _ } -> from_sources o_sources)
          ob.Ast.ob_deps)
      cd.cd_outputs
  in
  List.concat (from_bindings :: List.map from_constituent cd.cd_constituents)

(* --- dependency cycles among constituents (static, all alternatives) --- *)

let constituent_edges (cs : Ast.constituent list) =
  let names = List.map Ast.constituent_name cs in
  let deps_of_inputs inputs =
    let of_dep = function
      | Ast.Dep_notification sources -> List.map (fun (ns : Ast.notif_source) -> ns.ns_task) sources
      | Ast.Dep_object { d_sources; _ } ->
        List.map (fun (os : Ast.object_source) -> os.os_task) d_sources
    in
    List.concat_map (fun (iss : Ast.input_set_spec) -> List.concat_map of_dep iss.iss_deps) inputs
  in
  let edge_targets = function
    | Ast.C_task td -> deps_of_inputs td.Ast.td_inputs
    | Ast.C_compound cd -> deps_of_inputs cd.Ast.cd_inputs
    | Ast.C_template_inst _ -> []
  in
  List.map
    (fun c ->
      let name = Ast.constituent_name c in
      let targets = List.filter (fun t -> t <> name && List.mem t names) (edge_targets c) in
      (name, List.sort_uniq String.compare targets))
    cs

let find_cycle edges =
  let color = Hashtbl.create 16 in
  let rec visit name path =
    match Hashtbl.find_opt color name with
    | Some `Done -> None
    | Some `Active -> Some (name :: path)
    | None ->
      Hashtbl.replace color name `Active;
      let targets = try List.assoc name edges with Not_found -> [] in
      let result =
        List.fold_left
          (fun acc t -> match acc with Some _ -> acc | None -> visit t (name :: path))
          None targets
      in
      Hashtbl.replace color name `Done;
      result
  in
  List.fold_left
    (fun acc (name, _) -> match acc with Some _ -> acc | None -> visit name [])
    None edges

(* --- instances --- *)

let rec check_task env ~scope ~siblings (td : Ast.task_decl) =
  let site = { scope; self = td.td_name } in
  check_recovery env site ~siblings ~impl:td.td_impl ~recovery:td.td_recovery ~self_loc:td.td_loc;
  check_input_sets env site ~class_name:td.td_class ~inputs:td.td_inputs ~loc:td.td_loc

and check_compound env ~scope ~siblings (cd : Ast.compound_decl) =
  let site = { scope; self = cd.cd_name } in
  check_recovery env site ~siblings ~impl:cd.cd_impl ~recovery:cd.cd_recovery ~self_loc:cd.cd_loc;
  check_input_sets env site ~class_name:cd.cd_class ~inputs:cd.cd_inputs ~loc:cd.cd_loc;
  check_named_duplicates env ~what:"constituent task"
    (List.map (fun c -> (Ast.constituent_name c, Ast.constituent_loc c)) cd.cd_constituents);
  let class_of = function
    | Ast.C_task td -> td.Ast.td_class
    | Ast.C_compound inner -> inner.Ast.cd_class
    | Ast.C_template_inst _ -> "?"
  in
  let inner_scope =
    (cd.cd_name, cd.cd_class)
    :: List.map (fun c -> (Ast.constituent_name c, class_of c)) cd.cd_constituents
  in
  let siblings = List.map Ast.constituent_name cd.cd_constituents in
  let check_constituent = function
    | Ast.C_task td -> check_task env ~scope:inner_scope ~siblings td
    | Ast.C_compound inner -> check_compound env ~scope:inner_scope ~siblings inner
    | Ast.C_template_inst ti ->
      error env ti.Ast.ti_loc "unexpanded template instantiation %s (run template expansion first)"
        ti.Ast.ti_name
  in
  List.iter check_constituent cd.cd_constituents;
  let out_site = { scope = inner_scope; self = cd.cd_name } in
  check_output_bindings env out_site ~class_name:cd.cd_class ~bindings:cd.cd_outputs;
  (* lint: a constituent nobody consumes and no binding references is
     dead weight — it runs (or waits) but cannot influence any outcome *)
  let referenced = referenced_constituents cd in
  List.iter
    (fun c ->
      let name = Ast.constituent_name c in
      if not (List.mem name referenced) then
        warning env (Ast.constituent_loc c)
          "constituent %s of %s is never referenced by any dependency or output binding" name
          cd.cd_name)
    cd.cd_constituents;
  match find_cycle (constituent_edges cd.cd_constituents) with
  | Some (name :: _ as cycle) ->
    warning env cd.cd_loc
      "static dependency cycle among constituents of %s: %s (alternative sources may still break it at run time)"
      cd.cd_name
      (String.concat " -> " (List.rev (name :: List.tl cycle)))
  | Some [] | None -> ()

let check script =
  let env =
    {
      classes = Ast.classes script;
      parents = Ast.class_parents script;
      taskclasses =
        List.map (fun (tc : Ast.taskclass_decl) -> (tc.tcd_name, tc)) (Ast.taskclasses script);
      rev_issues = [];
    }
  in
  check_class_hierarchy env;
  (* namespace duplicates *)
  let names_of pred = List.filter_map pred script in
  check_named_duplicates env ~what:"class"
    (names_of (function
      | Ast.D_class { cls_name; cls_loc; _ } -> Some (cls_name, cls_loc)
      | _ -> None));
  check_named_duplicates env ~what:"taskclass"
    (names_of (function Ast.D_taskclass tc -> Some (tc.Ast.tcd_name, tc.Ast.tcd_loc) | _ -> None));
  check_named_duplicates env ~what:"task instance"
    (names_of (function
      | Ast.D_task td -> Some (td.Ast.td_name, td.Ast.td_loc)
      | Ast.D_compound cd -> Some (cd.Ast.cd_name, cd.Ast.cd_loc)
      | Ast.D_template_inst ti -> Some (ti.Ast.ti_name, ti.Ast.ti_loc)
      | _ -> None));
  List.iter (fun (_, tc) -> check_taskclass env tc) env.taskclasses;
  let top_scope =
    List.filter_map
      (function
        | Ast.D_task td -> Some (td.Ast.td_name, td.Ast.td_class)
        | Ast.D_compound cd -> Some (cd.Ast.cd_name, cd.Ast.cd_class)
        | _ -> None)
      script
  in
  let check_decl = function
    | Ast.D_class { cls_name = _; _ } | Ast.D_taskclass _ | Ast.D_template _ -> ()
    | Ast.D_task td -> check_task env ~scope:top_scope ~siblings:[] td
    | Ast.D_compound cd -> check_compound env ~scope:top_scope ~siblings:[] cd
    | Ast.D_template_inst ti ->
      error env ti.Ast.ti_loc "unexpanded template instantiation %s (run template expansion first)"
        ti.Ast.ti_name
  in
  List.iter check_decl script;
  List.rev env.rev_issues

let errors_only issues = List.filter (fun i -> i.severity = Error) issues

let ok script =
  match errors_only (check script) with [] -> Ok () | issues -> Error issues

let pp_issue ppf { severity; msg; loc } =
  let tag = match severity with Error -> "error" | Warning -> "warning" in
  Format.fprintf ppf "%s: %s (%a)" tag msg Loc.pp loc
