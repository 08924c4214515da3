(* Pure AST surgery for dynamic reconfiguration. Each transform locates
   the compound declaration at [scope] (a path of instance names from a
   top-level declaration) and rewrites it. *)

let rec update_compound ~scope (cd : Ast.compound_decl) ~f =
  match scope with
  | [] -> f cd
  | next :: rest ->
    let update_constituent = function
      | Ast.C_compound inner when inner.Ast.cd_name = next ->
        Result.map (fun c -> Ast.C_compound c) (update_compound ~scope:rest inner ~f)
      | other -> Ok other
    in
    let rec update_all = function
      | [] -> Error (Printf.sprintf "no compound task %s in %s" next cd.Ast.cd_name)
      | c :: cs when Ast.constituent_name c = next ->
        Result.map (fun c' -> c' :: cs) (update_constituent c)
      | c :: cs -> Result.map (fun cs' -> c :: cs') (update_all cs)
    in
    Result.map (fun cs -> { cd with Ast.cd_constituents = cs }) (update_all cd.Ast.cd_constituents)

let update_script ~scope script ~f =
  match scope with
  | [] -> Error "empty scope path"
  | root :: rest ->
    let found = ref false in
    let update_decl = function
      | Ast.D_compound cd when cd.Ast.cd_name = root ->
        found := true;
        Result.map (fun c -> Ast.D_compound c) (update_compound ~scope:rest cd ~f)
      | other -> Ok other
    in
    let rec all = function
      | [] -> Ok []
      | d :: ds -> (
        match update_decl d with
        | Error e -> Error e
        | Ok d' -> Result.map (fun ds' -> d' :: ds') (all ds))
    in
    let result = all script in
    if !found then result
    else Error (Printf.sprintf "no top-level compound task named %s" root)

(* Parse a fragment by wrapping it in a syntactic context and extracting
   the part we need. *)
let parse_constituent_decl decl =
  match Parser.script_result decl with
  | Error (msg, loc) -> Error (Printf.sprintf "bad declaration: %s (%s)" msg (Loc.to_string loc))
  | Ok [ Ast.D_task td ] -> Ok (Ast.C_task td)
  | Ok [ Ast.D_compound cd ] -> Ok (Ast.C_compound cd)
  | Ok _ -> Error "expected exactly one task or compoundtask declaration"

let parse_object_sources text =
  let wrapped =
    Printf.sprintf
      "task x_ of taskclass X_ { inputs { input main { inputobject o_ from { %s } } } }" text
  in
  match Parser.script_result wrapped with
  | Ok [ Ast.D_task { td_inputs = [ { iss_deps = [ Ast.Dep_object { d_sources; _ } ]; _ } ]; _ } ] ->
    Ok d_sources
  | Ok _ -> Error "could not parse object sources"
  | Error (msg, _) -> Error ("bad source syntax: " ^ msg)

let parse_notif_sources text =
  let wrapped =
    Printf.sprintf "task x_ of taskclass X_ { inputs { input main { notification from { %s } } } }"
      text
  in
  match Parser.script_result wrapped with
  | Ok [ Ast.D_task { td_inputs = [ { iss_deps = [ Ast.Dep_notification sources ]; _ } ]; _ } ] ->
    Ok sources
  | Ok _ -> Error "could not parse notification sources"
  | Error (msg, _) -> Error ("bad source syntax: " ^ msg)

let add_constituent ~scope ~decl script =
  match parse_constituent_decl decl with
  | Error e -> Error e
  | Ok constituent ->
    let name = Ast.constituent_name constituent in
    update_script ~scope script ~f:(fun cd ->
        if List.exists (fun c -> Ast.constituent_name c = name) cd.Ast.cd_constituents then
          Error (Printf.sprintf "constituent %s already exists in %s" name cd.Ast.cd_name)
        else Ok { cd with Ast.cd_constituents = cd.Ast.cd_constituents @ [ constituent ] })

let remove_constituent ~scope ~name script =
  update_script ~scope script ~f:(fun cd ->
      if not (List.exists (fun c -> Ast.constituent_name c = name) cd.Ast.cd_constituents) then
        Error (Printf.sprintf "no constituent %s in %s" name cd.Ast.cd_name)
      else
        Ok
          {
            cd with
            Ast.cd_constituents =
              List.filter (fun c -> Ast.constituent_name c <> name) cd.Ast.cd_constituents;
          })

(* Rewrite one constituent task's input sets. *)
let update_task_inputs ~scope ~task script ~f =
  update_script ~scope script ~f:(fun cd ->
      let seen = ref false in
      let update_constituent = function
        | Ast.C_task td when td.Ast.td_name = task ->
          seen := true;
          Result.map (fun inputs -> Ast.C_task { td with Ast.td_inputs = inputs }) (f td.Ast.td_inputs)
        | Ast.C_compound inner when inner.Ast.cd_name = task ->
          seen := true;
          Result.map
            (fun inputs -> Ast.C_compound { inner with Ast.cd_inputs = inputs })
            (f inner.Ast.cd_inputs)
        | other -> Ok other
      in
      let rec all = function
        | [] -> Ok []
        | c :: cs -> (
          match update_constituent c with
          | Error e -> Error e
          | Ok c' -> Result.map (fun cs' -> c' :: cs') (all cs))
      in
      match all cd.Ast.cd_constituents with
      | Error e -> Error e
      | Ok cs ->
        if !seen then Ok { cd with Ast.cd_constituents = cs }
        else Error (Printf.sprintf "no constituent %s in %s" task cd.Ast.cd_name))

let update_input_set ~input_set inputs ~f =
  let seen = ref false in
  let update (iss : Ast.input_set_spec) =
    if iss.Ast.iss_name = input_set then begin
      seen := true;
      Result.map (fun deps -> { iss with Ast.iss_deps = deps }) (f iss.Ast.iss_deps)
    end
    else Ok iss
  in
  let rec all = function
    | [] -> Ok []
    | s :: ss -> (
      match update s with
      | Error e -> Error e
      | Ok s' -> Result.map (fun ss' -> s' :: ss') (all ss))
  in
  match all inputs with
  | Error e -> Error e
  | Ok inputs' ->
    if !seen then Ok inputs' else Error (Printf.sprintf "no input set %s specified" input_set)

let add_object_source ~scope ~task ~input_set ~input_object ~source script =
  match parse_object_sources source with
  | Error e -> Error e
  | Ok new_sources ->
    update_task_inputs ~scope ~task script ~f:(fun inputs ->
        update_input_set ~input_set inputs ~f:(fun deps ->
            let extended = ref false in
            let extend = function
              | Ast.Dep_object { d_name; d_sources; d_loc } when d_name = input_object ->
                extended := true;
                Ast.Dep_object { d_name; d_sources = d_sources @ new_sources; d_loc }
              | other -> other
            in
            let deps' = List.map extend deps in
            if !extended then Ok deps'
            else
              Ok
                (deps
                @ [
                    Ast.Dep_object
                      { d_name = input_object; d_sources = new_sources; d_loc = Loc.dummy };
                  ])))

let add_notification ~scope ~task ~input_set ~sources script =
  match parse_notif_sources sources with
  | Error e -> Error e
  | Ok notif_sources ->
    update_task_inputs ~scope ~task script ~f:(fun inputs ->
        update_input_set ~input_set inputs ~f:(fun deps ->
            Ok (deps @ [ Ast.Dep_notification notif_sources ])))

let remove_notification ~scope ~task ~input_set ~source_task script =
  update_task_inputs ~scope ~task script ~f:(fun inputs ->
      update_input_set ~input_set inputs ~f:(fun deps ->
          let prune = function
            | Ast.Dep_notification sources -> (
              match
                List.filter (fun (ns : Ast.notif_source) -> ns.Ast.ns_task <> source_task) sources
              with
              | [] -> None
              | remaining -> Some (Ast.Dep_notification remaining))
            | other -> Some other
          in
          Ok (List.filter_map prune deps)))

let rebind_implementation ~scope ~task ~code script =
  update_script ~scope script ~f:(fun cd ->
      let seen = ref false in
      let rebind impl = ("code", code) :: List.remove_assoc "code" impl in
      let update = function
        | Ast.C_task td when td.Ast.td_name = task ->
          seen := true;
          Ast.C_task { td with Ast.td_impl = rebind td.Ast.td_impl }
        | Ast.C_compound inner when inner.Ast.cd_name = task ->
          seen := true;
          Ast.C_compound { inner with Ast.cd_impl = rebind inner.Ast.cd_impl }
        | other -> other
      in
      let cs = List.map update cd.Ast.cd_constituents in
      if !seen then Ok { cd with Ast.cd_constituents = cs }
      else Error (Printf.sprintf "no constituent %s in %s" task cd.Ast.cd_name))

(* The engine-side rewrite pipeline: parse the instance's current
   script, apply a transform, re-expand templates, re-validate, and
   re-render. Kept here so Engine.reconfigure only persists and swaps. *)
let rewrite ~script ~root ~transform =
  match Parser.script_result script with
  | Error (msg, _) -> Error ("current script no longer parses: " ^ msg)
  | Ok ast -> (
    match transform ast with
    | Error msg -> Error msg
    | Ok ast' -> (
      match Template.expand ast' with
      | Error (msg, _) -> Error msg
      | Ok expanded -> (
        match Validate.ok expanded with
        | Error issues ->
          Error
            (String.concat "; "
               (List.map (fun i -> Format.asprintf "%a" Validate.pp_issue i) issues))
        | Ok () -> (
          match Schema.of_script expanded ~root with
          | Error msg -> Error msg
          | Ok schema -> (
            match Pretty.unreadable_literal expanded with
            | Some lit ->
              Error (Printf.sprintf "string %S cannot be written as a script literal" lit)
            | None -> Ok (Pretty.to_string expanded, schema))))))
