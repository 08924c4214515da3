(* Tests for the language front-end: lexer, parser, pretty-printer
   round-trip, template expansion, semantic validation, and schema
   resolution — exercised on the paper's own scripts plus focused
   negative cases. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let contains_sub ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let parse_ok src =
  match Parser.script_result src with
  | Ok ast -> ast
  | Error (msg, loc) -> Alcotest.failf "parse error: %s (%s)" msg (Loc.to_string loc)

let load_ok src =
  match Frontend.load src with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "%s" (Frontend.error_to_string e)

let expect_validation_error ~containing src =
  let ast = parse_ok src in
  let expanded = match Template.expand ast with Ok a -> a | Error (m, _) -> Alcotest.failf "expand: %s" m in
  let issues = Validate.errors_only (Validate.check expanded) in
  let found =
    List.exists (fun (i : Validate.issue) -> contains_sub ~needle:containing i.Validate.msg) issues
  in
  if not found then
    Alcotest.failf "expected an error containing %S, got: %s" containing
      (String.concat " | " (List.map (fun (i : Validate.issue) -> i.Validate.msg) issues))

(* --- lexer --- *)

let test_lexer_basics () =
  let toks = Lexer.tokens "task t1 of taskclass T { }" in
  check_int "token count (incl. eof)" 8 (List.length toks);
  check "keywords recognised" true (fst (List.hd toks) = Token.Kw_task)

let test_lexer_comments () =
  let toks = Lexer.tokens "// line\ntask /* block /* nested */ still */ t" in
  check_int "comments skipped" 3 (List.length toks)

let test_lexer_smart_quotes () =
  (* the paper's typesetting: curly quotes *)
  let src = "implementation { \xe2\x80\x9ccode\xe2\x80\x9d is \xe2\x80\x9cSETPaymentCapture\xe2\x80\x9d }" in
  let toks = Lexer.tokens src in
  let strings = List.filter_map (function Token.String s, _ -> Some s | _ -> None) toks in
  Alcotest.(check (list string)) "smart quotes lexed" [ "code"; "SETPaymentCapture" ] strings

let test_lexer_trims_implementation_values () =
  let toks = Lexer.tokens "\"code \"" in
  check "trailing space trimmed (paper has 'code ')" true (fst (List.hd toks) = Token.String "code")

let test_lexer_error_position () =
  match Lexer.tokens "task\n  ?" with
  | exception Lexer.Error (_, loc) ->
    check_int "line" 2 loc.Loc.line;
    check_int "col" 3 loc.Loc.col
  | _ -> Alcotest.fail "expected a lexer error"

(* --- parser on the paper's fragments --- *)

let paper_taskclass =
  {|
taskclass Dispatch {
    inputs { input main { order of class Order } };
    outputs {
        outcome dispatchCompleted { dispatch of class DispatchNote };
        abort outcome dispatchFailed { }
    }
}
|}

let test_parse_taskclass () =
  match parse_ok paper_taskclass with
  | [ Ast.D_taskclass tc ] ->
    check_int "one input set" 1 (List.length tc.Ast.tcd_input_sets);
    check_int "two outputs" 2 (List.length tc.Ast.tcd_outputs);
    check "abort outcome kind" true
      ((List.nth tc.Ast.tcd_outputs 1).Ast.outd_kind = Ast.Abort_outcome)
  | _ -> Alcotest.fail "expected one taskclass"

let paper_task_with_alternatives =
  {|
task t1 of taskclass tc1 {
    inputs {
        input main {
            inputobject i1 from {
                i3 of task t2 if input main;
                o1 of task t3 if output oc1;
                o2 of task t3 if output oc2
            };
            inputobject i2 from { o1 of task t4 if output oc1 }
        }
    }
}
|}

let test_parse_source_alternatives () =
  match parse_ok paper_task_with_alternatives with
  | [ Ast.D_task td ] -> (
    match td.Ast.td_inputs with
    | [ { Ast.iss_deps = [ Ast.Dep_object { d_sources; _ }; Ast.Dep_object _ ]; _ } ] ->
      check_int "three alternatives for i1" 3 (List.length d_sources);
      check "first is an if-input source" true
        ((List.hd d_sources).Ast.os_cond = Ast.On_input "main")
    | _ -> Alcotest.fail "unexpected input structure")
  | _ -> Alcotest.fail "expected one task"

let test_parse_notifications_are_conjunctive () =
  let src =
    {|
task t1 of taskclass tc1 {
    inputs { input main {
        notification from { task t2 if output oc1; task t3 if output oc1 };
        notification from { task t2 if output oc2; task t4 if output oc2 }
    } }
}
|}
  in
  match parse_ok src with
  | [ Ast.D_task { td_inputs = [ { iss_deps; _ } ]; _ } ] ->
    check_int "two independent notification deps" 2 (List.length iss_deps)
  | _ -> Alcotest.fail "expected one task"

let test_parse_template_and_instantiation () =
  let src =
    {|
tasktemplate task watcher of taskclass Watch {
    parameters { src1; src2 };
    implementation { "code" is "watch" };
    inputs { input main {
        inputobject i1 from { o of task src1 if output success };
        inputobject i2 from { o of task src2 if input main }
    } }
};
w1 of tasktemplate watcher(alpha, beta)
|}
  in
  match parse_ok src with
  | [ Ast.D_template tpl; Ast.D_template_inst ti ] ->
    Alcotest.(check (list string)) "params" [ "src1"; "src2" ] tpl.Ast.tpl_params;
    Alcotest.(check (list string)) "args" [ "alpha"; "beta" ] ti.Ast.ti_args
  | _ -> Alcotest.fail "expected template + instantiation"

let test_parse_error_reports_position () =
  match Parser.script_result "task t1 of class X {}" with
  | Error (msg, _) -> check "mentions taskclass" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_paper_scripts_parse () =
  List.iter
    (fun (name, src, _) ->
      match Parser.script_result src with
      | Ok _ -> ()
      | Error (msg, loc) -> Alcotest.failf "%s: %s (%s)" name msg (Loc.to_string loc))
    Paper_scripts.all

(* --- untrusted script bytes --- *)

(* The four paper applications with a byte flipped, cut short, spliced
   onto another script or given a stray punctuation mark: the front end
   answers Ok or Error and never raises. *)
let fuzz_scripts =
  [|
    (Paper_scripts.quickstart, Paper_scripts.quickstart_root);
    (Paper_scripts.service_impact, Paper_scripts.service_impact_root);
    (Paper_scripts.process_order, Paper_scripts.process_order_root);
    (Paper_scripts.business_trip, Paper_scripts.business_trip_root);
  |]

let punctuation = "{}();,:\".\\"

let mutate_script ((which, other), (pos, arg, kind)) =
  let pick i = fuzz_scripts.(i mod Array.length fuzz_scripts) in
  let src, root = pick which in
  let n = String.length src in
  let at = pos mod (n + 1) in
  let mutated =
    match kind mod 4 with
    | 0 -> String.sub src 0 at
    | 1 when at < n ->
      let b = Bytes.of_string src in
      Bytes.set b at (Char.chr (Char.code src.[at] lxor (1 lsl (arg mod 8))));
      Bytes.to_string b
    | 1 -> src
    | 2 ->
      let donor, _ = pick other in
      let from = arg mod String.length donor in
      String.sub src 0 at ^ String.sub donor from (String.length donor - from)
    | _ ->
      String.sub src 0 at
      ^ String.make 1 punctuation.[arg mod String.length punctuation]
      ^ String.sub src at (n - at)
  in
  (mutated, root)

let mutated_script_qcheck =
  QCheck.Test.make ~name:"mutated script bytes never raise" ~count:1000
    QCheck.(
      map mutate_script
        (pair (pair small_nat small_nat)
           (triple (int_bound 1_000_000) (int_bound 1_000_000) small_nat)))
    (fun (src, root) ->
      match Frontend.compile src ~root with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* --- the lexer against its reference --- *)

(* [Lexer_ref] is the byte-at-a-time lexer that the index-based one
   replaced. Both must give the same tokens and locations, or raise the
   same message at the same location. *)
let lex_outcome src =
  match Lexer.tokens src with toks -> Ok toks | exception Lexer.Error (m, l) -> Error (m, l)

let lex_ref_outcome src =
  match Lexer_ref.tokens src with
  | toks -> Ok toks
  | exception Lexer_ref.Error (m, l) -> Error (m, l)

let show_outcome = function
  | Ok toks ->
    String.concat " "
      (List.map (fun (t, l) -> Printf.sprintf "%s@%s" (Token.to_string t) (Loc.to_string l)) toks)
  | Error (m, l) -> Printf.sprintf "error %S at %s" m (Loc.to_string l)

let lexers_agree src =
  let got = lex_outcome src and want = lex_ref_outcome src in
  got = want
  || QCheck.Test.fail_reportf "input %S\n  lexer:     %s\n  reference: %s" src (show_outcome got)
       (show_outcome want)

let lexer_differential_mutated =
  QCheck.Test.make ~name:"lexer = reference on mutated scripts" ~count:1000
    QCheck.(
      map mutate_script
        (pair (pair small_nat small_nat)
           (triple (int_bound 1_000_000) (int_bound 1_000_000) small_nat)))
    (fun (src, _) -> lexers_agree src)

(* Short inputs built from the pieces where a scanner can go wrong:
   nested comment brackets, digits against letters, CR/LF, quotes, and
   curly-quote prefixes that the end of input cuts short. *)
let lexer_pieces =
  [|
    "/*"; "*/"; "/"; "*"; "//"; "0"; "7"; "12"; "99999999999999999999"; "a"; "_"; "x1"; "task";
    "if"; " "; "\t"; "\r"; "\n"; "\r\n"; "\""; "\xe2\x80\x9c"; "\xe2\x80\x9d"; "\xe2";
    "\xe2\x80"; "\x9c"; "{"; "}"; ";"; ","; "("; "?"; "\xc3\xa9";
  |]

let gen_lexer_input =
  QCheck.Gen.(
    map
      (fun picks -> String.concat "" (List.map (fun i -> lexer_pieces.(i)) picks))
      (list_size (int_bound 12) (int_bound (Array.length lexer_pieces - 1))))

let lexer_differential_pieces =
  QCheck.Test.make ~name:"lexer = reference on short inputs" ~count:5000
    (QCheck.make gen_lexer_input ~print:(Printf.sprintf "%S"))
    lexers_agree

let test_lexer_matches_reference_on_scripts () =
  List.iter
    (fun (name, src, _) -> check name true (lex_outcome src = lex_ref_outcome src))
    (("supply_chain", Supply_chain.script, Supply_chain.root) :: Paper_scripts.all)

(* every error path at the end of the input, pinned for both lexers *)
let test_lexer_errors_at_end () =
  let outcome = Alcotest.testable (fun ppf o -> Format.pp_print_string ppf (show_outcome o)) ( = ) in
  List.iter
    (fun (src, msg, line, col) ->
      let want = Error (msg, { Loc.line; col }) in
      Alcotest.check outcome (Printf.sprintf "lexer on %S" src) want (lex_outcome src);
      Alcotest.check outcome (Printf.sprintf "reference on %S" src) want (lex_ref_outcome src))
    [
      ("task \"code", "unterminated string", 1, 6);
      ("\n  \xe2\x80\x9cab\ncd\xe2\x80", "unterminated string", 2, 3);
      ("x /* a /* b */\n", "unterminated comment", 1, 3);
      ("x\n/* a */ /*", "unterminated comment", 2, 9);
      ("t 12ab", "malformed number ending in 'a'", 1, 3);
      ("t 3_", "malformed number ending in '_'", 1, 3);
      ("retry 99999999999999999999", "number out of range", 1, 7);
      ("\xe2\x80\x9ca\xe2\x80\x9d\xe2\x80", "illegal character '\\226'", 1, 8);
      ("\"a\" \xe2", "illegal character '\\226'", 1, 5);
    ]

(* --- pretty-printer round trip --- *)

let strip_locs_decl d = ignore d

let test_roundtrip_paper_scripts () =
  List.iter
    (fun (name, src, _) ->
      let ast = parse_ok src in
      let printed = Pretty.to_string ast in
      let reparsed =
        match Parser.script_result printed with
        | Ok a -> a
        | Error (msg, loc) ->
          Alcotest.failf "%s: pretty output does not reparse: %s (%s)\n%s" name msg
            (Loc.to_string loc) printed
      in
      (* compare structure via a second print: print is deterministic *)
      let printed2 = Pretty.to_string reparsed in
      ignore strip_locs_decl;
      Alcotest.(check string) (name ^ " round-trips") printed printed2)
    Paper_scripts.all

(* --- template expansion --- *)

let template_script =
  {|
class Data;
taskclass Producer { outputs { outcome success { o of class Data } } };
taskclass Watch {
    inputs { input main { i1 of class Data } };
    outputs { outcome seen { } }
};
task alpha of taskclass Producer { implementation { "code" is "p" } };
tasktemplate task watcher of taskclass Watch {
    parameters { src };
    implementation { "code" is "watch" };
    inputs { input main { inputobject i1 from { o of task src if output success } } }
};
w1 of tasktemplate watcher(alpha)
|}

let test_template_expansion_substitutes () =
  let ast = parse_ok template_script in
  match Template.expand ast with
  | Error (msg, _) -> Alcotest.failf "expand failed: %s" msg
  | Ok expanded -> (
    check "no templates remain" true
      (not (List.exists (function Ast.D_template _ | Ast.D_template_inst _ -> true | _ -> false) expanded));
    match List.find_opt (fun d -> Ast.decl_name d = "w1") expanded with
    | Some (Ast.D_task td) -> (
      match td.Ast.td_inputs with
      | [ { Ast.iss_deps = [ Ast.Dep_object { d_sources = [ s ]; _ } ]; _ } ] ->
        Alcotest.(check string) "parameter substituted" "alpha" s.Ast.os_task
      | _ -> Alcotest.fail "unexpected input shape")
    | _ -> Alcotest.fail "w1 not found as a task")

let test_template_arity_mismatch () =
  let bad = template_script ^ ";\nw2 of tasktemplate watcher(alpha, alpha)" in
  let ast = parse_ok bad in
  match Template.expand ast with
  | Error (msg, _) -> check "mentions arity" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected arity error"

let test_template_unknown () =
  let ast = parse_ok "w of tasktemplate nope()" in
  match Template.expand ast with
  | Error (msg, _) -> check "unknown template" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected unknown-template error"

let test_expanded_template_validates () =
  let ast = parse_ok template_script in
  match Template.expand ast with
  | Error (msg, _) -> Alcotest.failf "expand: %s" msg
  | Ok expanded -> (
    match Validate.ok expanded with
    | Ok () -> ()
    | Error issues ->
      Alcotest.failf "unexpected errors: %s"
        (String.concat "; " (List.map (fun (i : Validate.issue) -> i.Validate.msg) issues)))

(* --- validation: the paper's scripts are clean --- *)

let test_paper_scripts_validate () =
  List.iter
    (fun (name, src, _) ->
      match Frontend.load src with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" name (Frontend.error_to_string e))
    Paper_scripts.all

(* --- validation: negative cases --- *)

let prelude =
  {|
class A;
class B;
taskclass Producer {
    inputs { input main { a of class A } };
    outputs {
        outcome ok { out of class A };
        repeat outcome again { out of class A }
    }
};
taskclass Consumer {
    inputs { input main { x of class A } };
    outputs { outcome done { } }
};
|}

let test_unknown_class_in_taskclass () =
  expect_validation_error ~containing:"unknown class"
    "taskclass T { inputs { input main { a of class Missing } }; outputs { } }"

let test_atomic_cannot_mark () =
  expect_validation_error ~containing:"abort outcome"
    {|
class A;
taskclass Bad {
    inputs { };
    outputs {
        abort outcome stop { };
        mark progress { p of class A }
    }
}
|}

let test_unknown_task_in_source () =
  expect_validation_error ~containing:"unknown task"
    (prelude
   ^ {|
task c of taskclass Consumer {
    inputs { input main { inputobject x from { out of task ghost if output ok } } }
}
|})

let test_unknown_output_in_source () =
  expect_validation_error ~containing:"has no output"
    (prelude
   ^ {|
task p of taskclass Producer { };
task c of taskclass Consumer {
    inputs { input main { inputobject x from { out of task p if output nope } } }
}
|})

let test_class_mismatch () =
  expect_validation_error ~containing:"class mismatch"
    (prelude
   ^ {|
taskclass BConsumer {
    inputs { input main { x of class B } };
    outputs { outcome done { } }
};
task p of taskclass Producer { };
task c of taskclass BConsumer {
    inputs { input main { inputobject x from { out of task p if output ok } } }
}
|})

let test_repeat_outcome_is_private () =
  expect_validation_error ~containing:"private"
    (prelude
   ^ {|
task p of taskclass Producer { };
task c of taskclass Consumer {
    inputs { input main { inputobject x from { out of task p if output again } } }
}
|})

let test_duplicate_tasks () =
  expect_validation_error ~containing:"duplicate"
    (prelude ^ "task p of taskclass Producer { }; task p of taskclass Producer { }")

let test_compound_output_kind_mismatch () =
  expect_validation_error ~containing:"bound as"
    (prelude
   ^ {|
taskclass Wrap {
    inputs { input main { a of class A } };
    outputs { outcome finished { } }
};
compoundtask w of taskclass Wrap {
    task p of taskclass Producer {
        inputs { input main { inputobject a from { a of task w if input main } } }
    };
    outputs { mark finished { notification from { task p if output ok } } }
}
|})

let test_compound_missing_output_object () =
  expect_validation_error ~containing:"has no sources"
    (prelude
   ^ {|
taskclass Wrap {
    inputs { input main { a of class A } };
    outputs { outcome finished { result of class A } }
};
compoundtask w of taskclass Wrap {
    task p of taskclass Producer {
        inputs { input main { inputobject a from { a of task w if input main } } }
    };
    outputs { outcome finished { notification from { task p if output ok } } }
}
|})

let test_cycle_warning () =
  let src =
    prelude
    ^ {|
taskclass Wrap {
    inputs { input main { a of class A } };
    outputs { outcome finished { } }
};
compoundtask w of taskclass Wrap {
    task p1 of taskclass Consumer {
        inputs { input main { inputobject x from { out of task p2 if output done } } }
    };
    task p2 of taskclass Consumer {
        inputs { input main { inputobject x from { out of task p1 if output done } } }
    };
    outputs { outcome finished { notification from { task p1 if output done } } }
}
|}
  in
  (* p1 <-> p2 reference each other's outputs: Consumer.done carries no
     objects, so also expect object errors; the cycle shows as a warning *)
  let ast = parse_ok src in
  let issues = Validate.check ast in
  check "cycle warning present" true
    (List.exists
       (fun (i : Validate.issue) ->
         i.Validate.severity = Validate.Warning
         && contains_sub ~needle:"cycle" i.Validate.msg)
       issues)

let test_unexpanded_template_is_error () =
  (* validated without expansion: instantiations must be flagged *)
  let ast = parse_ok "w of tasktemplate watcher(a)" in
  let issues = Validate.errors_only (Validate.check ast) in
  check "unexpanded instantiation is an error" true
    (List.exists (fun (i : Validate.issue) -> contains_sub ~needle:"unexpanded" i.Validate.msg) issues)



(* --- further validator edge cases --- *)

let test_duplicate_input_sets_in_class () =
  expect_validation_error ~containing:"duplicate input set"
    {|
class A;
taskclass T {
    inputs { input main { a of class A }; input main { b of class A } };
    outputs { }
}
|}

let test_duplicate_objects_in_set () =
  expect_validation_error ~containing:"duplicate object"
    {|
class A;
taskclass T {
    inputs { input main { a of class A; a of class A } };
    outputs { }
}
|}

let test_duplicate_outputs () =
  expect_validation_error ~containing:"duplicate output"
    {|
class A;
taskclass T { inputs { }; outputs { outcome done { }; outcome done { } } }
|}

let test_unknown_input_set_in_instance () =
  expect_validation_error ~containing:"declares no input set"
    (prelude ^ {|
task p of taskclass Producer {
    inputs { input ghost { } }
}
|})

let test_undeclared_object_in_spec () =
  expect_validation_error ~containing:"declares no object"
    (prelude ^ {|
task p0 of taskclass Producer { };
task p of taskclass Producer {
    inputs { input main { inputobject ghost from { out of task p0 if output ok } } }
}
|})

let test_empty_source_list_rejected () =
  expect_validation_error ~containing:"no sources"
    (prelude ^ {|
task c of taskclass Consumer {
    inputs { input main { inputobject x from { } } }
}
|})

let test_any_source_without_carrying_output () =
  expect_validation_error ~containing:"carries an object"
    (prelude ^ {|
task p of taskclass Producer { };
task c of taskclass Consumer {
    inputs { input main { inputobject x from { ghost of task p } } }
}
|})

let test_notification_on_unknown_input_set () =
  expect_validation_error ~containing:"has no input set"
    (prelude ^ {|
task p of taskclass Producer { };
task c of taskclass Consumer {
    inputs { input main {
        notification from { task p if input ghost };
        inputobject x from { out of task p if output ok }
    } }
}
|})

let test_duplicate_constituents () =
  expect_validation_error ~containing:"duplicate constituent"
    (prelude ^ {|
taskclass Wrap { inputs { input main { a of class A } }; outputs { outcome done { } } };
compoundtask w of taskclass Wrap {
    task p of taskclass Producer { };
    task p of taskclass Producer { };
    outputs { outcome done { notification from { task p if output ok } } }
}
|})

let test_never_produced_outcome_is_warning_only () =
  let src =
    prelude
    ^ {|
taskclass Wrap {
    inputs { input main { a of class A } };
    outputs { outcome done { }; outcome spare { } }
};
compoundtask w of taskclass Wrap {
    task p of taskclass Producer {
        inputs { input main { inputobject a from { a of task w if input main } } }
    };
    outputs { outcome done { notification from { task p if output ok } } }
}
|}
  in
  let ast = parse_ok src in
  (match Validate.ok ast with
  | Ok () -> ()
  | Error issues ->
    Alcotest.failf "unexpected errors: %s"
      (String.concat "; " (List.map (fun (i : Validate.issue) -> i.Validate.msg) issues)));
  let issues = Validate.check ast in
  check "warning about the unproduced outcome" true
    (List.exists
       (fun (i : Validate.issue) ->
         i.Validate.severity = Validate.Warning
         && contains_sub ~needle:"never produces" i.Validate.msg)
       issues)


let test_dead_constituent_warns () =
  let src =
    prelude
    ^ {|
taskclass Wrap { inputs { input main { a of class A } }; outputs { outcome done { } } };
compoundtask w of taskclass Wrap {
    task used of taskclass Producer {
        inputs { input main { inputobject a from { a of task w if input main } } }
    };
    task orphan of taskclass Producer {
        inputs { input main { inputobject a from { a of task w if input main } } }
    };
    outputs { outcome done { notification from { task used if output ok } } }
}
|}
  in
  let issues = Validate.check (parse_ok src) in
  check "orphan constituent flagged" true
    (List.exists
       (fun (i : Validate.issue) ->
         i.Validate.severity = Validate.Warning
         && contains_sub ~needle:"orphan" i.Validate.msg
         && contains_sub ~needle:"never referenced" i.Validate.msg)
       issues);
  check "used constituent not flagged" true
    (not
       (List.exists
          (fun (i : Validate.issue) ->
            contains_sub ~needle:"constituent used" i.Validate.msg)
          issues))

(* --- subtyping extension (paper §7 future work) --- *)

let subtyping_prelude =
  {|
class Asset;
class Account extends Asset;
class EuroAccount extends Account;
taskclass MakeEuroAccount {
    inputs { input main { seed of class Asset } };
    outputs { outcome made { account of class EuroAccount } }
};
taskclass UseAsset {
    inputs { input main { thing of class Asset } };
    outputs { outcome used { } }
};
taskclass UseEuroAccount {
    inputs { input main { thing of class EuroAccount } };
    outputs { outcome used { } }
};
task maker of taskclass MakeEuroAccount { };
|}

let test_subtype_parse_roundtrip () =
  let ast = parse_ok "class Account extends Asset" in
  let printed = Pretty.to_string ast in
  check "extends printed" true (contains_sub ~needle:"extends Asset" printed);
  match Parser.script_result printed with
  | Ok [ Ast.D_class { cls_parent = Some "Asset"; _ } ] -> ()
  | _ -> Alcotest.fail "extends did not round-trip"

let test_subtype_accepted_upcast () =
  (* EuroAccount <: Account <: Asset: usable where Asset is expected *)
  let src =
    subtyping_prelude
    ^ {|
task consumer of taskclass UseAsset {
    inputs { input main { inputobject thing from { account of task maker if output made } } }
}
|}
  in
  let ast = parse_ok src in
  (match Validate.ok ast with
  | Ok () -> ()
  | Error issues ->
    Alcotest.failf "upcast rejected: %s"
      (String.concat "; " (List.map (fun (i : Validate.issue) -> i.Validate.msg) issues)))

let test_subtype_rejected_downcast () =
  (* an Asset is NOT usable where a EuroAccount is expected *)
  expect_validation_error ~containing:"class mismatch"
    (subtyping_prelude
   ^ {|
taskclass MakeAsset {
    inputs { input main { seed of class Asset } };
    outputs { outcome made { thing of class Asset } }
};
task assetMaker of taskclass MakeAsset { };
task consumer of taskclass UseEuroAccount {
    inputs { input main { inputobject thing from { thing of task assetMaker if output made } } }
}
|})

let test_subtype_unknown_parent () =
  expect_validation_error ~containing:"unknown class" "class Orphan extends Ghost"

let test_subtype_cycle () =
  expect_validation_error ~containing:"cycle"
    "class A extends B; class B extends C; class C extends A"

(* --- recovery clauses: parse, round-trip, validation, compilation --- *)

let recovery_task_script =
  {|
task t of taskclass T {
    implementation { "code" is "c1" };
    recovery {
        retry 3 backoff 5 max 40;
        timeout 50 then substitute "c2";
        alternative "a1", "a2";
        compensate undo
    }
}
|}

let test_parse_recovery_clauses () =
  match parse_ok recovery_task_script with
  | [ Ast.D_task td ] ->
    let r = td.Ast.td_recovery in
    check_int "four clauses" 4 (List.length r);
    check "retry clause" true (Ast.recovery_retry r = Some (3, Some 5, Some 40));
    check "timeout clause" true (Ast.recovery_timeout r = Some (50, Ast.Ta_substitute "c2"));
    Alcotest.(check (list string)) "ranked alternatives" [ "a1"; "a2" ] (Ast.recovery_alternatives r);
    check "compensate clause" true (Ast.recovery_compensate r = Some "undo")
  | _ -> Alcotest.fail "expected one task"

let test_parse_recovery_on_compound () =
  let src =
    {|
compoundtask c of taskclass T {
    recovery { retry 1; timeout 9 then abort };
    task inner of taskclass U { implementation { "code" is "x" } };
    outputs { outcome done { notification from { task inner if output ok } } }
}
|}
  in
  match parse_ok src with
  | [ Ast.D_compound cd ] ->
    check "retry on compound" true (Ast.recovery_retry cd.Ast.cd_recovery = Some (1, None, None));
    check "abort action" true (Ast.recovery_timeout cd.Ast.cd_recovery = Some (9, Ast.Ta_abort))
  | _ -> Alcotest.fail "expected one compoundtask"

let test_recovery_words_stay_identifiers () =
  (* 'retry', 'timeout', ... are contextual: plain identifiers outside a
     recovery block (the paper's scripts use such names freely) *)
  match parse_ok "task retry of taskclass timeout { }" with
  | [ Ast.D_task td ] ->
    Alcotest.(check string) "task named retry" "retry" td.Ast.td_name;
    Alcotest.(check string) "class named timeout" "timeout" td.Ast.td_class
  | _ -> Alcotest.fail "expected one task"

let norm_recovery =
  List.map (function
    | Ast.R_retry { count; backoff; jitter; max; _ } -> `Retry (count, backoff, jitter, max)
    | Ast.R_timeout { ms; action; _ } -> `Timeout (ms, action)
    | Ast.R_alternative { codes; _ } -> `Alternative codes
    | Ast.R_compensate { task; _ } -> `Compensate task)

let reparse_recovery printed =
  match Parser.script_result printed with
  | Ok [ Ast.D_task td ] -> td.Ast.td_recovery
  | Ok _ -> Alcotest.failf "pretty output is not one task:\n%s" printed
  | Error (msg, loc) ->
    Alcotest.failf "pretty output does not reparse: %s (%s)\n%s" msg (Loc.to_string loc) printed

let test_recovery_roundtrip_fixed () =
  match parse_ok recovery_task_script with
  | [ Ast.D_task td ] ->
    let printed = Pretty.to_string [ Ast.D_task td ] in
    check "round-trips to equal clauses" true
      (norm_recovery (reparse_recovery printed) = norm_recovery td.Ast.td_recovery)
  | _ -> Alcotest.fail "expected one task"

(* Property: any generated recovery section pretty-prints to a script
   that reparses to the same clauses. *)
let dummy_task_with_recovery r =
  {
    Ast.td_name = "t";
    td_class = "T";
    td_impl = [ ("code", "c") ];
    td_recovery = r;
    td_inputs = [];
    td_loc = Loc.dummy;
  }

let gen_code = QCheck.Gen.(map (Printf.sprintf "c%d") (int_bound 99))

let gen_clause =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun ((count, backoff, max), jitter) ->
              Ast.R_retry { count; backoff; jitter; max; loc = Loc.dummy })
            (pair
               (triple (int_bound 9) (opt (int_range 1 99)) (opt (int_range 1 999)))
               (opt (int_range 1 99))) );
        ( 3,
          map
            (fun (ms, action) -> Ast.R_timeout { ms; action; loc = Loc.dummy })
            (pair (int_range 1 999)
               (oneof
                  [
                    return Ast.Ta_alternative;
                    map (fun c -> Ast.Ta_substitute c) gen_code;
                    return Ast.Ta_abort;
                  ])) );
        ( 2,
          map
            (fun codes -> Ast.R_alternative { codes; loc = Loc.dummy })
            (list_size (int_range 1 3) gen_code) );
        ( 1,
          map
            (fun task -> Ast.R_compensate { task; loc = Loc.dummy })
            (map (Printf.sprintf "t%d") (int_bound 99)) );
      ])

let gen_recovery = QCheck.Gen.(list_size (int_range 1 4) gen_clause)

let recovery_qcheck =
  QCheck.Test.make ~name:"generated recovery sections round-trip" ~count:300
    (QCheck.make gen_recovery
       ~print:(fun r -> Pretty.to_string [ Ast.D_task (dummy_task_with_recovery r) ]))
    (fun r ->
      let td = dummy_task_with_recovery r in
      let printed = Pretty.to_string [ Ast.D_task td ] in
      match Parser.script_result printed with
      | Ok [ Ast.D_task td' ] -> norm_recovery td'.Ast.td_recovery = norm_recovery r
      | Ok _ | Error _ -> false)

(* The lexer has no escape syntax, so the printer writes literals
   verbatim: a literal survives print then parse byte for byte, UTF-8
   and backslashes included, exactly when [Pretty.unreadable_literal]
   accepts it. *)
let literals_of_task (td : Ast.task_decl) =
  let substitute =
    match Ast.recovery_timeout td.td_recovery with
    | Some (_, Ast.Ta_substitute c) -> [ c ]
    | Some _ | None -> []
  in
  List.concat_map (fun (k, v) -> [ k; v ]) td.td_impl
  @ substitute
  @ Ast.recovery_alternatives td.td_recovery

let task_with_literals (k, v, sub, alt) =
  {
    (dummy_task_with_recovery
       [
         Ast.R_timeout { ms = 5; action = Ast.Ta_substitute sub; loc = Loc.dummy };
         Ast.R_alternative { codes = [ alt ]; loc = Loc.dummy };
       ])
    with
    Ast.td_impl = [ (k, v) ];
  }

let gen_literal =
  QCheck.Gen.(
    map
      (fun picks -> String.concat "" picks)
      (list_size (int_bound 6)
         (oneofl
            [
              "a"; "Z"; "0"; " "; "\t"; "\\"; "\\n"; "'"; "\xc3\xa9"; "\xe2"; "\xe2\x80"; "\x9c"; "/*";
              "//"; "\""; "\xe2\x80\x9d";
            ])))

let literal_roundtrip_qcheck =
  QCheck.Test.make ~name:"printed literals reparse unchanged" ~count:1000
    (QCheck.make
       QCheck.Gen.(quad gen_literal gen_literal gen_literal gen_literal)
       ~print:(fun (k, v, sub, alt) -> Printf.sprintf "%S %S %S %S" k v sub alt))
    (fun lits ->
      let td = task_with_literals lits in
      let round_trips =
        match Parser.script_result (Pretty.to_string [ Ast.D_task td ]) with
        | Ok [ Ast.D_task td' ] -> literals_of_task td' = literals_of_task td
        | Ok _ | Error _ -> false
      in
      round_trips = (Pretty.unreadable_literal [ Ast.D_task td ] = None))

let test_literals_verbatim () =
  let td = task_with_literals ("code", "caf\xc3\xa9", "a\\b", "\xe2\x80") in
  let printed = Pretty.to_string [ Ast.D_task td ] in
  Alcotest.(check (option string)) "readable" None (Pretty.unreadable_literal [ Ast.D_task td ]);
  check "no OCaml escapes" false (contains_sub ~needle:"\\195" printed);
  match Parser.script_result printed with
  | Ok [ Ast.D_task td' ] ->
    Alcotest.(check (list string)) "literals" (literals_of_task td) (literals_of_task td')
  | Ok _ | Error _ -> Alcotest.failf "does not reparse:\n%s" printed

let test_unreadable_literals () =
  List.iter
    (fun lit ->
      Alcotest.(check (option string))
        (Printf.sprintf "%S" lit) (Some lit)
        (Pretty.unreadable_literal [ Ast.D_task (task_with_literals ("code", "c", "s", lit)) ]))
    [ "a\"b"; "\xe2\x80\x9cq"; "q\xe2\x80\x9d"; " lead"; "trail\n" ]

(* validation of recovery sections: contradictory clauses are located
   errors *)

let recovery_script ?(impl = {|"code" is "c"|}) ?(tail = "") recovery =
  prelude
  ^ Printf.sprintf
      {|
compoundtask root of taskclass Consumer {
    task t of taskclass Consumer {
        implementation { %s };
        recovery { %s };
        inputs { input main { inputobject x from { x of task root if input main } } }
    };
%s    outputs { outcome done { notification from { task t if output done } } }
}
|}
      impl recovery tail

let test_recovery_retry_zero_backoff () =
  expect_validation_error ~containing:"retry 0 cannot take a backoff"
    (recovery_script "retry 0 backoff 5")

let test_recovery_jitter_without_backoff () =
  expect_validation_error ~containing:"jitter requires a backoff base"
    (recovery_script "retry 2 jitter 3")

let test_recovery_jitter_at_least_base () =
  expect_validation_error ~containing:"must be below the backoff base"
    (recovery_script "retry 2 backoff 5 jitter 5")

let test_recovery_jitter_parses_and_compiles () =
  let src = recovery_script "retry 2 backoff 10 jitter 4 max 40" in
  let ast = load_ok src in
  (match ast with
  | _ :: _ ->
    let all =
      List.concat_map (function Ast.D_compound cd -> cd.Ast.cd_constituents | _ -> []) ast
    in
    let t = List.find_map (function Ast.C_task td when td.Ast.td_name = "t" -> Some td | _ -> None) all in
    (match t with
    | Some td ->
      check "jitter parsed" true (Ast.recovery_retry_jitter td.Ast.td_recovery = Some 4)
    | None -> Alcotest.fail "no task t")
  | [] -> Alcotest.fail "empty script");
  match Schema.of_script ast ~root:"root" with
  | Error msg -> Alcotest.failf "schema: %s" msg
  | Ok root -> (
    match Schema.find_child root "t" with
    | None -> Alcotest.fail "no child t"
    | Some t ->
      check_int "jitter compiled" 4 t.Schema.policy.Schema.p_jitter_ms)

let test_recovery_max_without_backoff () =
  expect_validation_error ~containing:"max requires a backoff base" (recovery_script "retry 2 max 10")

let test_recovery_cap_below_base () =
  expect_validation_error ~containing:"below the base delay"
    (recovery_script "retry 2 backoff 10 max 5")

let test_recovery_then_alternative_without_alternatives () =
  expect_validation_error ~containing:"requires an alternative clause"
    (recovery_script "timeout 50 then alternative")

let test_recovery_timeout_below_duration () =
  expect_validation_error ~containing:"shorter than the declared duration"
    (recovery_script ~impl:{|"code" is "c", "duration" is "80"|} "timeout 50 then abort")

let test_recovery_compensate_undeclared () =
  expect_validation_error ~containing:"compensate names undeclared task"
    (recovery_script "compensate ghost")

let test_recovery_compensate_self () =
  expect_validation_error ~containing:"cannot compensate itself" (recovery_script "compensate t")

(* the engine runs a compensation at the sibling path [parent @ [t]]:
   the enclosing compound and a top-level task are declared, but never
   siblings, so naming them must not pass *)
let test_recovery_compensate_enclosing () =
  expect_validation_error ~containing:"another constituent of the same compound"
    (recovery_script "compensate root")

let test_recovery_compensate_top_level () =
  expect_validation_error ~containing:"another constituent of the same compound"
    (prelude
    ^ {|
task u of taskclass Consumer {
    implementation { "code" is "u" };
    recovery { compensate v }
};
task v of taskclass Consumer {
    implementation { "code" is "v" }
};
|})

let test_recovery_duplicate_clause () =
  expect_validation_error ~containing:"duplicate timeout clause"
    (recovery_script "timeout 5 then abort; timeout 6 then abort")

let compensate_tail =
  {|    task u of taskclass Consumer {
        implementation { "code" is "u" };
        inputs { input main { inputobject x from { x of task root if input main } } }
    };
|}

let test_recovery_valid_section_is_clean () =
  let src =
    recovery_script ~tail:compensate_tail
      {|retry 2 backoff 5 max 40; timeout 50 then alternative; alternative "c2"; compensate u|}
  in
  let ast = parse_ok src in
  let expanded =
    match Template.expand ast with Ok a -> a | Error (m, _) -> Alcotest.failf "expand: %s" m
  in
  Alcotest.(check (list string))
    "no errors" []
    (List.map
       (fun (i : Validate.issue) -> i.Validate.msg)
       (Validate.errors_only (Validate.check expanded)))

let test_recovery_compiles_to_schema_policy () =
  let src =
    recovery_script ~tail:compensate_tail
      {|retry 2 backoff 5 max 40; timeout 50 then substitute "c9"; alternative "c2"; compensate u|}
  in
  let ast = load_ok src in
  match Schema.of_script ast ~root:"root" with
  | Error msg -> Alcotest.failf "schema: %s" msg
  | Ok root -> (
    match Schema.find_child root "t" with
    | None -> Alcotest.fail "no child t"
    | Some t ->
      let p = t.Schema.policy in
      check "declared" true p.Schema.p_declared;
      check "retry" true (p.Schema.p_retry = Some 2);
      check_int "backoff" 5 p.Schema.p_backoff_ms;
      check "cap" true (p.Schema.p_backoff_max_ms = Some 40);
      check "timeout" true (p.Schema.p_timeout_ms = Some 50);
      check "substitute" true (p.Schema.p_on_timeout = Ast.Ta_substitute "c9");
      Alcotest.(check (list string)) "alternatives" [ "c2" ] p.Schema.p_alternatives;
      check "compensate" true (p.Schema.p_compensate = Some "u");
      (match Schema.find_child root "u" with
      | Some u -> check "sibling policy undeclared" true (not u.Schema.policy.Schema.p_declared)
      | None -> Alcotest.fail "no child u"))

(* --- schema resolution --- *)

let test_schema_of_process_order () =
  let ast = load_ok Paper_scripts.process_order in
  match Schema.of_script ast ~root:Paper_scripts.process_order_root with
  | Error msg -> Alcotest.failf "schema: %s" msg
  | Ok task ->
    check_int "five tasks in the tree" 5 (Schema.task_count task);
    check "root is compound" true (match task.Schema.body with Schema.Compound _ -> true | _ -> false);
    check "root not atomic" true (not (Schema.is_atomic task));
    (match Schema.find_child task "dispatch" with
    | Some dispatch ->
      check "dispatch is atomic (abort outcome)" true (Schema.is_atomic dispatch);
      check "dispatch impl code" true
        (Ast.impl_code dispatch.Schema.impl = Some "refDispatch")
    | None -> Alcotest.fail "no dispatch child")

let test_schema_external_inputs () =
  let ast = load_ok Paper_scripts.process_order in
  match Schema.of_script ast ~root:Paper_scripts.process_order_root with
  | Error msg -> Alcotest.failf "schema: %s" msg
  | Ok task -> (
    match Schema.input_set_named task "main" with
    | Some set ->
      check "root order input is external" true
        ((List.hd set.Schema.is_objects).Schema.io_sources = [])
    | None -> Alcotest.fail "no main input set")

let test_schema_unknown_root () =
  let ast = load_ok Paper_scripts.process_order in
  check "unknown root rejected" true
    (match Schema.of_script ast ~root:"nope" with Error _ -> true | Ok _ -> false)

let test_schema_business_trip_nesting () =
  let ast = load_ok Paper_scripts.business_trip in
  match Schema.of_script ast ~root:Paper_scripts.business_trip_root with
  | Error msg -> Alcotest.failf "schema: %s" msg
  | Ok task -> (
    check_int "eleven tasks in the tree" 11 (Schema.task_count task);
    match Schema.find_child task "businessReservation" with
    | Some br -> (
      match Schema.find_child br "checkFlightReservation" with
      | Some cfr -> check_int "three queries" 4 (Schema.task_count cfr)
      | None -> Alcotest.fail "no checkFlightReservation")
    | None -> Alcotest.fail "no businessReservation")

(* --- dot export --- *)

let test_dot_output_shape () =
  let ast = load_ok Paper_scripts.quickstart in
  match Schema.of_script ast ~root:Paper_scripts.quickstart_root with
  | Error msg -> Alcotest.failf "schema: %s" msg
  | Ok task ->
    let dot = Dot.of_task task in
    check "digraph" true (String.length dot > 0 && String.sub dot 0 8 = "digraph ");
    let contains needle = contains_sub ~needle dot in
    check "cluster for the compound" true (contains "subgraph");
    check "solid dataflow edge" true (contains "style=solid");
    check "t4 joins" true (contains "label=\"left\"")

let test_dot_notification_edges_dotted () =
  let ast = load_ok Paper_scripts.process_order in
  match Schema.of_script ast ~root:Paper_scripts.process_order_root with
  | Error msg -> Alcotest.failf "schema: %s" msg
  | Ok task ->
    let dot = Dot.of_task task in
    check "dotted notification edge" true (contains_sub ~needle:"style=dotted" dot)

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "smart quotes" `Quick test_lexer_smart_quotes;
          Alcotest.test_case "trims strings" `Quick test_lexer_trims_implementation_values;
          Alcotest.test_case "error position" `Quick test_lexer_error_position;
          Alcotest.test_case "reference on checked-in scripts" `Quick
            test_lexer_matches_reference_on_scripts;
          Alcotest.test_case "errors at end of input" `Quick test_lexer_errors_at_end;
          QCheck_alcotest.to_alcotest lexer_differential_mutated;
          QCheck_alcotest.to_alcotest lexer_differential_pieces;
        ] );
      ( "parser",
        [
          Alcotest.test_case "taskclass" `Quick test_parse_taskclass;
          Alcotest.test_case "source alternatives" `Quick test_parse_source_alternatives;
          Alcotest.test_case "notification conjunction" `Quick test_parse_notifications_are_conjunctive;
          Alcotest.test_case "templates" `Quick test_parse_template_and_instantiation;
          Alcotest.test_case "error position" `Quick test_parse_error_reports_position;
          Alcotest.test_case "paper scripts parse" `Quick test_paper_scripts_parse;
          QCheck_alcotest.to_alcotest mutated_script_qcheck;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "round trip" `Quick test_roundtrip_paper_scripts;
          Alcotest.test_case "literals verbatim" `Quick test_literals_verbatim;
          Alcotest.test_case "unreadable literals" `Quick test_unreadable_literals;
          QCheck_alcotest.to_alcotest literal_roundtrip_qcheck;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "parse clauses" `Quick test_parse_recovery_clauses;
          Alcotest.test_case "parse on compound" `Quick test_parse_recovery_on_compound;
          Alcotest.test_case "contextual keywords" `Quick test_recovery_words_stay_identifiers;
          Alcotest.test_case "round trip" `Quick test_recovery_roundtrip_fixed;
          QCheck_alcotest.to_alcotest recovery_qcheck;
          Alcotest.test_case "retry 0 backoff" `Quick test_recovery_retry_zero_backoff;
          Alcotest.test_case "max without backoff" `Quick test_recovery_max_without_backoff;
          Alcotest.test_case "jitter without backoff" `Quick test_recovery_jitter_without_backoff;
          Alcotest.test_case "jitter at least base" `Quick test_recovery_jitter_at_least_base;
          Alcotest.test_case "jitter parses and compiles" `Quick
            test_recovery_jitter_parses_and_compiles;
          Alcotest.test_case "cap below base" `Quick test_recovery_cap_below_base;
          Alcotest.test_case "then alternative needs alternatives" `Quick
            test_recovery_then_alternative_without_alternatives;
          Alcotest.test_case "timeout below duration" `Quick test_recovery_timeout_below_duration;
          Alcotest.test_case "compensate undeclared" `Quick test_recovery_compensate_undeclared;
          Alcotest.test_case "compensate self" `Quick test_recovery_compensate_self;
          Alcotest.test_case "compensate enclosing compound" `Quick
            test_recovery_compensate_enclosing;
          Alcotest.test_case "compensate top-level task" `Quick
            test_recovery_compensate_top_level;
          Alcotest.test_case "duplicate clause" `Quick test_recovery_duplicate_clause;
          Alcotest.test_case "valid section clean" `Quick test_recovery_valid_section_is_clean;
          Alcotest.test_case "compiles to policy" `Quick test_recovery_compiles_to_schema_policy;
        ] );
      ( "templates",
        [
          Alcotest.test_case "substitution" `Quick test_template_expansion_substitutes;
          Alcotest.test_case "arity mismatch" `Quick test_template_arity_mismatch;
          Alcotest.test_case "unknown template" `Quick test_template_unknown;
          Alcotest.test_case "expanded validates" `Quick test_expanded_template_validates;
        ] );
      ( "validate",
        [
          Alcotest.test_case "paper scripts validate" `Quick test_paper_scripts_validate;
          Alcotest.test_case "unknown class" `Quick test_unknown_class_in_taskclass;
          Alcotest.test_case "atomic cannot mark" `Quick test_atomic_cannot_mark;
          Alcotest.test_case "unknown task" `Quick test_unknown_task_in_source;
          Alcotest.test_case "unknown output" `Quick test_unknown_output_in_source;
          Alcotest.test_case "class mismatch" `Quick test_class_mismatch;
          Alcotest.test_case "repeat private" `Quick test_repeat_outcome_is_private;
          Alcotest.test_case "duplicates" `Quick test_duplicate_tasks;
          Alcotest.test_case "binding kind mismatch" `Quick test_compound_output_kind_mismatch;
          Alcotest.test_case "missing output object" `Quick test_compound_missing_output_object;
          Alcotest.test_case "cycle warning" `Quick test_cycle_warning;
          Alcotest.test_case "unexpanded template" `Quick test_unexpanded_template_is_error;
        ] );
      ( "validate-edge-cases",
        [
          Alcotest.test_case "dup input sets" `Quick test_duplicate_input_sets_in_class;
          Alcotest.test_case "dup objects" `Quick test_duplicate_objects_in_set;
          Alcotest.test_case "dup outputs" `Quick test_duplicate_outputs;
          Alcotest.test_case "unknown input set" `Quick test_unknown_input_set_in_instance;
          Alcotest.test_case "undeclared object" `Quick test_undeclared_object_in_spec;
          Alcotest.test_case "empty sources" `Quick test_empty_source_list_rejected;
          Alcotest.test_case "any without carrier" `Quick test_any_source_without_carrying_output;
          Alcotest.test_case "notif unknown set" `Quick test_notification_on_unknown_input_set;
          Alcotest.test_case "dup constituents" `Quick test_duplicate_constituents;
          Alcotest.test_case "unproduced outcome warns" `Quick
            test_never_produced_outcome_is_warning_only;
          Alcotest.test_case "dead constituent warns" `Quick test_dead_constituent_warns;
        ] );
      ( "subtyping",
        [
          Alcotest.test_case "parse + roundtrip" `Quick test_subtype_parse_roundtrip;
          Alcotest.test_case "upcast accepted" `Quick test_subtype_accepted_upcast;
          Alcotest.test_case "downcast rejected" `Quick test_subtype_rejected_downcast;
          Alcotest.test_case "unknown parent" `Quick test_subtype_unknown_parent;
          Alcotest.test_case "inheritance cycle" `Quick test_subtype_cycle;
        ] );
      ( "schema",
        [
          Alcotest.test_case "process order" `Quick test_schema_of_process_order;
          Alcotest.test_case "external inputs" `Quick test_schema_external_inputs;
          Alcotest.test_case "unknown root" `Quick test_schema_unknown_root;
          Alcotest.test_case "business trip nesting" `Quick test_schema_business_trip_nesting;
        ] );
      ( "dot",
        [
          Alcotest.test_case "quickstart shape" `Quick test_dot_output_shape;
          Alcotest.test_case "dotted notifications" `Quick test_dot_notification_edges_dotted;
        ] );
    ]
