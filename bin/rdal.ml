(* rdal — command-line front end for the workflow scripting language.

   check   parse + expand templates + validate, reporting every issue
   fmt     print the canonical form
   inspect list schema roots, task counts and warnings
   dot     emit a Graphviz digraph for one root (Fig 1-style diagrams)
   run     execute a script on a simulated single-node cluster, binding
           any implementation names that are not known to a generic
           implementation that produces a chosen (or the first) outcome *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_or_exit path =
  let source = read_file path in
  match Parser.script_result source with
  | Error (msg, loc) ->
    Printf.eprintf "%s: parse error: %s (%s)\n" path msg (Loc.to_string loc);
    exit 1
  | Ok ast -> (
    match Template.expand ast with
    | Error (msg, loc) ->
      Printf.eprintf "%s: template error: %s (%s)\n" path msg (Loc.to_string loc);
      exit 1
    | Ok expanded -> (source, expanded))

(* --- check --- *)

let cmd_check path strict =
  let _, ast = load_or_exit path in
  let issues = Validate.check ast in
  List.iter (fun issue -> Format.printf "%s: %a@." path Validate.pp_issue issue) issues;
  let errors = Validate.errors_only issues in
  let fail_on_warning = strict && issues <> [] in
  if errors <> [] || fail_on_warning then exit 1
  else begin
    Format.printf "%s: ok (%d declaration(s), %d warning(s))@." path (List.length ast)
      (List.length issues - List.length errors);
    exit 0
  end

(* --- fmt --- *)

let cmd_fmt path =
  let source = read_file path in
  match Parser.script_result source with
  | Error (msg, loc) ->
    Printf.eprintf "%s: parse error: %s (%s)\n" path msg (Loc.to_string loc);
    exit 1
  | Ok ast -> print_string (Pretty.to_string ast)

(* --- inspect --- *)

let cmd_inspect path =
  let _, ast = load_or_exit path in
  let issues = Validate.check ast in
  let warnings = List.length issues - List.length (Validate.errors_only issues) in
  Format.printf "declarations: %d@." (List.length ast);
  Format.printf "classes:      %s@." (String.concat ", " (Ast.classes ast));
  Format.printf "taskclasses:  %s@."
    (String.concat ", " (List.map (fun (tc : Ast.taskclass_decl) -> tc.Ast.tcd_name) (Ast.taskclasses ast)));
  Format.printf "warnings:     %d@." warnings;
  let describe root =
    match Schema.of_script ast ~root with
    | Ok task ->
      Format.printf "root %-28s %d task(s)%s@." root (Schema.task_count task)
        (if Schema.is_atomic task then ", atomic" else "")
    | Error msg -> Format.printf "root %-28s unresolvable: %s@." root msg
  in
  List.iter describe (Frontend.roots ast)

(* --- dot --- *)

let resolve_root ast = function
  | Some root -> root
  | None -> (
    match Frontend.roots ast with
    | [ root ] -> root
    | [] ->
      prerr_endline "no top-level task in the script";
      exit 1
    | roots ->
      Printf.eprintf "several roots (%s): pick one with --root\n" (String.concat ", " roots);
      exit 1)

let cmd_dot path root =
  let _, ast = load_or_exit path in
  (match Validate.ok ast with
  | Ok () -> ()
  | Error issues ->
    List.iter (fun issue -> Format.eprintf "%s: %a@." path Validate.pp_issue issue) issues;
    exit 1);
  let root = resolve_root ast root in
  match Schema.of_script ast ~root with
  | Ok task -> print_string (Dot.of_task task)
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

(* --- run --- *)

let parse_input spec =
  (* name=Class:value *)
  match String.index_opt spec '=' with
  | None -> Error (spec ^ ": expected name=Class:value")
  | Some i -> (
    let name = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    match String.index_opt rest ':' with
    | None -> Error (spec ^ ": expected name=Class:value")
    | Some j ->
      let cls = String.sub rest 0 j in
      let value = String.sub rest (j + 1) (String.length rest - j - 1) in
      let payload =
        match int_of_string_opt value with Some n -> Value.Int n | None -> Value.Str value
      in
      Ok (name, Value.obj ~cls payload))

let parse_force spec =
  match String.index_opt spec '=' with
  | Some i ->
    Ok (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  | None -> Error (spec ^ ": expected code=output")

(* Bind a generic implementation for every code the schema references
   that is not already bound: it finishes in the forced output if given,
   otherwise the first non-abort outcome, with Str payloads. *)
let bind_generic registry schema forced =
  let rec codes (task : Schema.task) acc =
    let acc =
      match (task.Schema.body, Ast.impl_code task.Schema.impl) with
      | Schema.Simple, Some code -> (code, task) :: acc
      | _ -> acc
    in
    match task.Schema.body with
    | Schema.Compound { children; _ } -> List.fold_left (fun acc c -> codes c acc) acc children
    | Schema.Simple -> acc
  in
  let pick_output (task : Schema.task) code =
    match List.assoc_opt code forced with
    | Some output -> output
    | None -> (
      let non_abort =
        List.find_opt
          (fun (o : Schema.output) ->
            o.Schema.out_kind = Ast.Outcome)
          task.Schema.outputs
      in
      match non_abort with
      | Some o -> o.Schema.out_name
      | None -> ( match task.Schema.outputs with o :: _ -> o.Schema.out_name | [] -> "done"))
  in
  let bind (code, task) =
    if Registry.find registry ~code = None then begin
      let output = pick_output task code in
      let objects =
        match Schema.output_named task output with
        | Some out -> List.map (fun (name, _) -> (name, Value.Str (code ^ ":" ^ name))) out.Schema.out_objects
        | None -> []
      in
      Registry.bind registry ~code (Registry.const output objects)
    end
  in
  List.iter bind (codes schema [])

let cmd_run path root inputs forced seed show_trace show_gantt until_ms =
  let source, ast = load_or_exit path in
  (match Validate.ok ast with
  | Ok () -> ()
  | Error issues ->
    List.iter (fun issue -> Format.eprintf "%s: %a@." path Validate.pp_issue issue) issues;
    exit 1);
  let root = resolve_root ast root in
  let schema =
    match Schema.of_script ast ~root with
    | Ok s -> s
    | Error msg ->
      prerr_endline msg;
      exit 1
  in
  let inputs =
    List.map
      (fun spec ->
        match parse_input spec with
        | Ok binding -> binding
        | Error e ->
          prerr_endline e;
          exit 1)
      inputs
  in
  let forced =
    List.map
      (fun spec ->
        match parse_force spec with
        | Ok f -> f
        | Error e ->
          prerr_endline e;
          exit 1)
      forced
  in
  let tb = Testbed.make ~seed:(Int64.of_int seed) () in
  Impls.register_all_defaults tb.Testbed.registry;
  bind_generic tb.Testbed.registry schema forced;
  match
    Testbed.launch_and_run ?until:(Option.map Sim.ms until_ms) tb ~script:source ~root ~inputs
  with
  | Error e ->
    prerr_endline e;
    exit 1
  | Ok (iid, status) ->
    if show_trace then
      List.iter
        (fun (at, ev) -> Format.printf "[%8d us] %a@." at Event.pp ev)
        (Engine.trace tb.Testbed.engine);
    if show_gantt then print_string (Gantt.render (Engine.trace tb.Testbed.engine));
    Format.printf "instance %s: %a@." iid Wstate.pp_status status;
    List.iter
      (fun (p, s) -> Format.printf "  %-40s %a@." p Wstate.pp_task_state s)
      (Option.fold ~none:[] ~some:Instate.task_states (Engine.mirror tb.Testbed.engine iid));
    (match status with
    | Wstate.Wf_done { objects; _ } ->
      List.iter
        (fun (name, obj) -> Format.printf "  output %s = %a@." name Value.pp_obj obj)
        objects
    | Wstate.Wf_running | Wstate.Wf_failed _ -> ());
    exit (match status with Wstate.Wf_done _ -> 0 | _ -> 2)

(* --- cmdliner wiring --- *)

open Cmdliner

let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT")

let root_arg =
  Arg.(value & opt (some string) None & info [ "root" ] ~docv:"TASK" ~doc:"Top-level instance to use.")

let check_cmd =
  let strict = Arg.(value & flag & info [ "strict" ] ~doc:"Fail on warnings too.") in
  Cmd.v (Cmd.info "check" ~doc:"Parse, expand templates and validate a script")
    Term.(const cmd_check $ path_arg $ strict)

let fmt_cmd =
  Cmd.v (Cmd.info "fmt" ~doc:"Print the canonical formatting of a script")
    Term.(const cmd_fmt $ path_arg)

let inspect_cmd =
  Cmd.v (Cmd.info "inspect" ~doc:"Summarise a script's classes, taskclasses and roots")
    Term.(const cmd_inspect $ path_arg)

let dot_cmd =
  Cmd.v (Cmd.info "dot" ~doc:"Emit a Graphviz digraph of the dependency structure")
    Term.(const cmd_dot $ path_arg $ root_arg)

let run_cmd =
  let inputs =
    Arg.(value & opt_all string [] & info [ "input"; "i" ] ~docv:"name=Class:value"
           ~doc:"External input object for the root task (repeatable).")
  in
  let force =
    Arg.(value & opt_all string [] & info [ "force" ] ~docv:"code=output"
           ~doc:"Make the generic implementation bound to $(i,code) finish in $(i,output).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the engine's typed event log.") in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Draw an ASCII Gantt chart of the run.") in
  let until =
    Arg.(value & opt (some int) None & info [ "until" ] ~docv:"MS" ~doc:"Stop after MS simulated milliseconds.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a script on a simulated cluster")
    Term.(const cmd_run $ path_arg $ root_arg $ inputs $ force $ seed $ trace $ gantt $ until)

let () =
  let doc = "workflow scripting language tools (ICDCS'98 reproduction)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "rdal" ~doc) [ check_cmd; fmt_cmd; inspect_cmd; dot_cmd; run_cmd ]))
