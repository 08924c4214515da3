(* Integration tests on the supply-chain case study: every language
   feature interacting in one application (templates, subtyping, timer
   input sets, atomic auto-restart, priorities, compensation). *)

let check = Alcotest.(check bool)

let check_str = Alcotest.(check string)

let run scenario =
  let tb = Testbed.make () in
  Supply_chain.register ~scenario tb.Testbed.registry;
  match
    Testbed.launch_and_run tb ~script:Supply_chain.script ~root:Supply_chain.root
      ~inputs:Supply_chain.inputs
  with
  | Ok (iid, status) -> (tb, iid, status)
  | Error e -> Alcotest.failf "launch: %s" e

let expect_done ~output status =
  match status with
  | Wstate.Wf_done { output = o; objects } ->
    check_str "outcome" output o;
    objects
  | Wstate.Wf_running -> Alcotest.fail "still running"
  | Wstate.Wf_failed reason -> Alcotest.failf "failed: %s" reason

let test_script_validates () =
  match Frontend.load Supply_chain.script with
  | Ok ast ->
    (* templates expanded: quoteA/quoteB are concrete tasks now *)
    check "no template decls remain" true
      (not (List.exists (function Ast.D_template _ -> true | _ -> false) ast))
  | Error e -> Alcotest.failf "%s" (Frontend.error_to_string e)

let test_fulfilled_path () =
  let tb, iid, status = run Supply_chain.smooth in
  let objects = expect_done ~output:"fulfilled" status in
  check_str "shipment delivered" "pallet-77"
    (match List.assoc_opt "shipment" objects with
    | Some { Value.payload = Value.Str s; _ } -> s
    | _ -> "?");
  check_str "invoice issued" "inv-2026-07"
    (match List.assoc_opt "invoice" objects with
    | Some { Value.payload = Value.Str s; _ } -> s
    | _ -> "?");
  (* templates ran: both expanded query tasks completed *)
  (match Harness.task_state tb.Testbed.engine iid [ "fulfillment"; "quoteA" ] with
  | Some (Wstate.Done { output = "quoted"; _ }) -> ()
  | _ -> Alcotest.fail "quoteA (template instance) did not run");
  match Harness.task_state tb.Testbed.engine iid [ "fulfillment"; "quoteB" ] with
  | Some (Wstate.Done _) -> ()
  | _ -> Alcotest.fail "quoteB (template instance) did not run"

let test_priority_orders_dispatch () =
  (* ship (priority 10) and invoice (priority 1) become ready in the same
     scheduling round after the reservation; ship must dispatch first *)
  let tb, _, _ = run Supply_chain.smooth in
  let starts =
    List.filter_map
      (function _, Event.Task_started { path; _ } -> Some path | _ -> None)
      (Engine.trace tb.Testbed.engine)
  in
  let index_of prefix =
    let rec find i = function
      | [] -> -1
      | d :: rest ->
        if String.length d >= String.length prefix && String.sub d 0 (String.length prefix) = prefix
        then i
        else find (i + 1) rest
    in
    find 0 starts
  in
  let ship_at = index_of "fulfillment/ship" in
  let invoice_at = index_of "fulfillment/invoice" in
  check "both started" true (ship_at >= 0 && invoice_at >= 0);
  check "higher priority dispatched first" true (ship_at < invoice_at)

let test_reserve_auto_restart () =
  let scenario = { Supply_chain.smooth with Supply_chain.reserve_aborts = 2 } in
  let tb, iid, status = run scenario in
  ignore (expect_done ~output:"fulfilled" status);
  match Harness.task_state tb.Testbed.engine iid [ "fulfillment"; "reserve" ] with
  | Some (Wstate.Done { attempt; output = "reserved"; _ }) ->
    Alcotest.(check int) "third attempt reserved" 3 attempt
  | other ->
    Alcotest.failf "reserve: %s"
      (match other with Some s -> Format.asprintf "%a" Wstate.pp_task_state s | None -> "none")

let test_no_suppliers_times_out () =
  let scenario =
    { Supply_chain.smooth with Supply_chain.supplier_a_quotes = false; supplier_b_quotes = false }
  in
  let tb, iid, status = run scenario in
  ignore (expect_done ~output:"rejected" status);
  match Harness.task_state tb.Testbed.engine iid [ "fulfillment"; "selectQuote" ] with
  | Some (Wstate.Done { output = "noQuote"; _ }) -> ()
  | other ->
    Alcotest.failf "selectQuote: %s"
      (match other with Some s -> Format.asprintf "%a" Wstate.pp_task_state s | None -> "none")

let test_one_supplier_enough () =
  let scenario = { Supply_chain.smooth with Supply_chain.supplier_a_quotes = false } in
  let _, _, status = run scenario in
  ignore (expect_done ~output:"fulfilled" status)

let test_declined_payment_rejects () =
  let scenario = { Supply_chain.smooth with Supply_chain.authorised = false } in
  let _, _, status = run scenario in
  ignore (expect_done ~output:"rejected" status)

let test_failed_shipping_compensates () =
  let scenario = { Supply_chain.smooth with Supply_chain.ship_ok = false } in
  let tb, iid, status = run scenario in
  ignore (expect_done ~output:"failed" status);
  match Harness.task_state tb.Testbed.engine iid [ "fulfillment"; "releaseInventory" ] with
  | Some (Wstate.Done { output = "released"; _ }) -> ()
  | other ->
    Alcotest.failf "releaseInventory: %s"
      (match other with Some s -> Format.asprintf "%a" Wstate.pp_task_state s | None -> "none")

let test_survives_engine_crash () =
  let engine_config =
    { Engine.default_config with Engine.default_deadline = Sim.ms 80; system_max_attempts = 50 }
  in
  let tb = Testbed.make ~engine_config () in
  Supply_chain.register ~work:(Sim.ms 15) ~scenario:Supply_chain.smooth tb.Testbed.registry;
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 25) (fun () -> Testbed.crash tb "n0"));
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 70) (fun () -> Testbed.recover tb "n0"));
  match
    Testbed.launch_and_run ~until:(Sim.sec 60) tb ~script:Supply_chain.script
      ~root:Supply_chain.root ~inputs:Supply_chain.inputs
  with
  | Ok (_, status) -> ignore (expect_done ~output:"fulfilled" status)
  | Error e -> Alcotest.failf "launch: %s" e

let () =
  Alcotest.run "supply-chain"
    [
      ( "integration",
        [
          Alcotest.test_case "script validates" `Quick test_script_validates;
          Alcotest.test_case "fulfilled path" `Quick test_fulfilled_path;
          Alcotest.test_case "priority ordering" `Quick test_priority_orders_dispatch;
          Alcotest.test_case "atomic auto-restart" `Quick test_reserve_auto_restart;
          Alcotest.test_case "quote timeout" `Quick test_no_suppliers_times_out;
          Alcotest.test_case "one supplier enough" `Quick test_one_supplier_enough;
          Alcotest.test_case "declined payment" `Quick test_declined_payment_rejects;
          Alcotest.test_case "compensation" `Quick test_failed_shipping_compensates;
          Alcotest.test_case "engine crash mid-run" `Quick test_survives_engine_crash;
        ] );
    ]
