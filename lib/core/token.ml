type t =
  | Ident of string
  | String of string
  | Int of int
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

let keywords =
  [
    ("class", Kw_class);
    ("taskclass", Kw_taskclass);
    ("task", Kw_task);
    ("compoundtask", Kw_compoundtask);
    ("tasktemplate", Kw_tasktemplate);
    ("inputs", Kw_inputs);
    ("outputs", Kw_outputs);
    ("input", Kw_input);
    ("output", Kw_output);
    ("inputobject", Kw_inputobject);
    ("outputobject", Kw_outputobject);
    ("outcome", Kw_outcome);
    ("abort", Kw_abort);
    ("repeat", Kw_repeat);
    ("mark", Kw_mark);
    ("notification", Kw_notification);
    ("from", Kw_from);
    ("of", Kw_of);
    ("if", Kw_if);
    ("is", Kw_is);
    ("implementation", Kw_implementation);
    ("parameters", Kw_parameters);
    ("extends", Kw_extends);
    ("recovery", Kw_recovery);
  ]

let keyword_table =
  let t = Hashtbl.create 32 in
  List.iter (fun (name, kw) -> Hashtbl.replace t name kw) keywords;
  t

let keyword_of_string s = Hashtbl.find_opt keyword_table s

let to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | String s -> Printf.sprintf "string %S" s
  | Int n -> Printf.sprintf "number %d" n
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Semi -> "';'"
  | Comma -> "','"
  | Eof -> "end of input"
  | kw -> (
    match List.find_opt (fun (_, t) -> t = kw) keywords with
    | Some (name, _) -> Printf.sprintf "keyword '%s'" name
    | None -> "unknown token")
