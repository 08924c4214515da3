(* Unit tests for the dynamic-reconfiguration AST transforms
   (lib/engine/reconfig.ml): each standard operation applied to the
   paper's §5.2 script, checked by re-validating and inspecting the
   transformed AST. The engine-level (transactional, mid-run) behaviour
   is covered in test_engine.ml. *)

let check = Alcotest.(check bool)

let base_ast () = Parser.script Paper_scripts.process_order

let scope = [ "processOrderApplication" ]

let apply_ok transform =
  match transform (base_ast ()) with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "transform failed: %s" e

let find_compound ast name =
  List.find_map
    (function Ast.D_compound cd when cd.Ast.cd_name = name -> Some cd | _ -> None)
    ast

let constituent_names ast =
  match find_compound ast "processOrderApplication" with
  | Some cd -> List.map Ast.constituent_name cd.Ast.cd_constituents
  | None -> Alcotest.fail "compound vanished"

let validates ast = match Validate.ok ast with Ok () -> true | Error _ -> false

(* --- add_constituent --- *)

let audit_decl =
  {|
task auditor of taskclass CheckStock {
    implementation { "code" is "refCheckStock" };
    inputs { input main {
        inputobject order from { order of task processOrderApplication if input main }
    } }
}
|}

let test_add_constituent () =
  let ast = apply_ok (Reconfig.add_constituent ~scope ~decl:audit_decl) in
  Alcotest.(check (list string))
    "appended"
    [ "paymentAuthorisation"; "checkStock"; "dispatch"; "paymentCapture"; "auditor" ]
    (constituent_names ast);
  check "still validates" true (validates ast)

let test_add_constituent_duplicate_rejected () =
  let dup = {|task dispatch of taskclass Dispatch { implementation { "code" is "x" } }|} in
  match Reconfig.add_constituent ~scope ~decl:dup (base_ast ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate constituent accepted"

let test_add_constituent_bad_scope () =
  match Reconfig.add_constituent ~scope:[ "nope" ] ~decl:audit_decl (base_ast ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown scope accepted"

let test_add_constituent_syntax_error () =
  match Reconfig.add_constituent ~scope ~decl:"task {" (base_ast ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage declaration accepted"

(* --- remove_constituent --- *)

let test_remove_constituent () =
  let ast = apply_ok (Reconfig.remove_constituent ~scope ~name:"paymentCapture") in
  check "gone" true (not (List.mem "paymentCapture" (constituent_names ast)));
  (* removing paymentCapture breaks the orderCompleted notification —
     the validator must catch that, which is exactly why the engine
     revalidates before committing a reconfiguration *)
  check "validator catches the dangling reference" true (not (validates ast))

let test_remove_constituent_unknown () =
  match Reconfig.remove_constituent ~scope ~name:"ghost" (base_ast ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown constituent accepted"

(* --- add_object_source --- *)

let test_add_object_source_appends_alternative () =
  let ast =
    apply_ok
      (Reconfig.add_object_source ~scope ~task:"paymentCapture" ~input_set:"main"
         ~input_object:"paymentInfo"
         ~source:"paymentInfo of task paymentAuthorisation if output authorised")
  in
  check "still validates" true (validates ast);
  match find_compound ast "processOrderApplication" with
  | Some cd -> (
    let capture =
      List.find_map
        (function
          | Ast.C_task td when td.Ast.td_name = "paymentCapture" -> Some td
          | _ -> None)
        cd.Ast.cd_constituents
    in
    match capture with
    | Some td ->
      let count =
        List.concat_map
          (fun (iss : Ast.input_set_spec) ->
            List.concat_map
              (function
                | Ast.Dep_object { d_name = "paymentInfo"; d_sources; _ } -> d_sources
                | _ -> [])
              iss.Ast.iss_deps)
          td.Ast.td_inputs
      in
      Alcotest.(check int) "two alternatives now" 2 (List.length count)
    | None -> Alcotest.fail "paymentCapture missing")
  | None -> Alcotest.fail "compound missing"

let test_add_object_source_bad_syntax () =
  match
    Reconfig.add_object_source ~scope ~task:"paymentCapture" ~input_set:"main"
      ~input_object:"paymentInfo" ~source:"not a source" (base_ast ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad source syntax accepted"

(* --- add_notification / remove_notification --- *)

let test_add_notification () =
  let ast =
    apply_ok
      (Reconfig.add_notification ~scope ~task:"paymentCapture" ~input_set:"main"
         ~sources:"task checkStock if output stockAvailable")
  in
  check "still validates" true (validates ast)

let test_remove_notification () =
  let ast =
    apply_ok
      (Reconfig.remove_notification ~scope ~task:"dispatch" ~input_set:"main"
         ~source_task:"paymentAuthorisation")
  in
  check "still validates" true (validates ast);
  (* dispatch now depends only on checkStock's dataflow *)
  match find_compound ast "processOrderApplication" with
  | Some cd ->
    let dispatch =
      List.find_map
        (function Ast.C_task td when td.Ast.td_name = "dispatch" -> Some td | _ -> None)
        cd.Ast.cd_constituents
    in
    (match dispatch with
    | Some td ->
      let notifs =
        List.concat_map
          (fun (iss : Ast.input_set_spec) ->
            List.filter
              (function Ast.Dep_notification _ -> true | _ -> false)
              iss.Ast.iss_deps)
          td.Ast.td_inputs
      in
      Alcotest.(check int) "notification dependency dropped" 0 (List.length notifs)
    | None -> Alcotest.fail "dispatch missing")
  | None -> Alcotest.fail "compound missing"

(* --- rebind_implementation --- *)

let test_rebind_implementation () =
  let ast = apply_ok (Reconfig.rebind_implementation ~scope ~task:"dispatch" ~code:"refDispatchV2") in
  check "still validates" true (validates ast);
  match find_compound ast "processOrderApplication" with
  | Some cd -> (
    let dispatch =
      List.find_map
        (function Ast.C_task td when td.Ast.td_name = "dispatch" -> Some td | _ -> None)
        cd.Ast.cd_constituents
    in
    match dispatch with
    | Some td -> Alcotest.(check (option string)) "rebound" (Some "refDispatchV2") (Ast.impl_code td.Ast.td_impl)
    | None -> Alcotest.fail "dispatch missing")
  | None -> Alcotest.fail "compound missing"

let test_rebind_unknown_task () =
  match Reconfig.rebind_implementation ~scope ~task:"ghost" ~code:"x" (base_ast ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown task accepted"

(* The rewritten script is persisted as text and recompiled on
   recovery, so a code the text cannot carry is refused, and any other
   code goes into the text verbatim. *)
let rewrite_code code =
  Reconfig.rewrite ~script:Paper_scripts.process_order ~root:"processOrderApplication"
    ~transform:(Reconfig.rebind_implementation ~scope ~task:"dispatch" ~code)

let test_rewrite_refuses_unreadable_literal () =
  List.iter
    (fun code ->
      match rewrite_code code with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "rewrite accepted %S" code)
    [ "ref\"Dispatch"; "\xe2\x80\x9cref"; "ref\xe2\x80\x9d"; " ref"; "ref\n" ]

let test_rewrite_keeps_literal_verbatim () =
  let code = "r\xc3\xa9f\\Dispatch" in
  match rewrite_code code with
  | Error e -> Alcotest.failf "rewrite failed: %s" e
  | Ok (text, _) -> (
    match Frontend.compile text ~root:"processOrderApplication" with
    | Error e -> Alcotest.failf "rewritten text does not compile: %s" (Frontend.error_to_string e)
    | Ok _ ->
      let dispatch_code ast =
        Option.bind (find_compound ast "processOrderApplication") (fun cd ->
            List.find_map
              (function
                | Ast.C_task td when td.Ast.td_name = "dispatch" -> Ast.impl_code td.Ast.td_impl
                | _ -> None)
              cd.Ast.cd_constituents)
      in
      Alcotest.(check (option string)) "code read back" (Some code)
        (dispatch_code (Parser.script text)))

(* --- nested scopes --- *)

let test_nested_scope_navigation () =
  let ast = Parser.script Paper_scripts.business_trip in
  let result =
    Reconfig.rebind_implementation
      ~scope:[ "tripReservation"; "businessReservation"; "checkFlightReservation" ]
      ~task:"query2" ~code:"refAirlineQueryV2" ast
  in
  match result with
  | Ok ast' -> check "still validates" true (validates ast')
  | Error e -> Alcotest.failf "nested navigation failed: %s" e

let test_nested_scope_unknown_middle () =
  let ast = Parser.script Paper_scripts.business_trip in
  match
    Reconfig.rebind_implementation ~scope:[ "tripReservation"; "ghost" ] ~task:"x" ~code:"y" ast
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad nested scope accepted"

let () =
  Alcotest.run "reconfig"
    [
      ( "add",
        [
          Alcotest.test_case "add constituent" `Quick test_add_constituent;
          Alcotest.test_case "duplicate rejected" `Quick test_add_constituent_duplicate_rejected;
          Alcotest.test_case "bad scope" `Quick test_add_constituent_bad_scope;
          Alcotest.test_case "syntax error" `Quick test_add_constituent_syntax_error;
        ] );
      ( "remove",
        [
          Alcotest.test_case "remove constituent" `Quick test_remove_constituent;
          Alcotest.test_case "unknown constituent" `Quick test_remove_constituent_unknown;
        ] );
      ( "dependencies",
        [
          Alcotest.test_case "add object source" `Quick test_add_object_source_appends_alternative;
          Alcotest.test_case "bad source syntax" `Quick test_add_object_source_bad_syntax;
          Alcotest.test_case "add notification" `Quick test_add_notification;
          Alcotest.test_case "remove notification" `Quick test_remove_notification;
        ] );
      ( "rebind",
        [
          Alcotest.test_case "rebind implementation" `Quick test_rebind_implementation;
          Alcotest.test_case "unknown task" `Quick test_rebind_unknown_task;
          Alcotest.test_case "unreadable literal refused" `Quick
            test_rewrite_refuses_unreadable_literal;
          Alcotest.test_case "literal kept verbatim" `Quick test_rewrite_keeps_literal_verbatim;
        ] );
      ( "nested",
        [
          Alcotest.test_case "navigate nested scopes" `Quick test_nested_scope_navigation;
          Alcotest.test_case "unknown middle scope" `Quick test_nested_scope_unknown_middle;
        ] );
    ]
