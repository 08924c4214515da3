(* Property tests over the synthetic workload generators: every
   generated script must validate cleanly and run to its [finished]
   outcome with the structurally expected number of dispatches. These
   double as randomized end-to-end tests of the whole stack. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let run_workload (script, root) =
  let tb = Testbed.make () in
  Workloads.register tb.Testbed.registry;
  match Testbed.launch_and_run tb ~script ~root ~inputs:Workloads.seed_inputs with
  | Ok (iid, status) -> (tb, iid, status)
  | Error e -> Alcotest.failf "workload failed to launch: %s" e

let finished = function
  | Wstate.Wf_done { output = "finished"; _ } -> true
  | _ -> false

(* --- deterministic structural checks --- *)

let test_chain_dispatch_count () =
  let tb, _, status = run_workload (Workloads.chain ~n:10) in
  check "finished" true (finished status);
  check_int "one dispatch per stage" 10 (Engine.dispatches_total tb.Testbed.engine)

let test_fanout_dispatch_count () =
  let tb, _, status = run_workload (Workloads.fanout ~width:7) in
  check "finished" true (finished status);
  (* source + 7 workers + join *)
  check_int "w+2 dispatches" 9 (Engine.dispatches_total tb.Testbed.engine)

let test_fanout_parallelism () =
  let tb, _, _ = run_workload (Workloads.fanout ~width:5) in
  let starts =
    List.filter_map
      (function
        | at, Event.Task_started { path; _ } when String.starts_with ~prefix:"fanout/w" path ->
          Some at
        | _ -> None)
      (Engine.trace tb.Testbed.engine)
  in
  check_int "five workers started" 5 (List.length starts);
  check "all released at the same instant" true
    (match starts with [] -> false | t :: rest -> List.for_all (( = ) t) rest)

let test_nested_single_worker () =
  let tb, _, status = run_workload (Workloads.nested ~depth:6) in
  check "finished" true (finished status);
  check_int "only the innermost worker dispatches" 1 (Engine.dispatches_total tb.Testbed.engine)

let test_alternatives_payload_flows () =
  let _, _, status = run_workload (Workloads.alternatives ~k:5 ~alive:2) in
  match status with
  | Wstate.Wf_done { output = "finished"; objects } ->
    check "seed flowed through the live alternative" true
      (match List.assoc_opt "data" objects with
      | Some { Value.payload = Value.Str "seed"; _ } -> true
      | _ -> false)
  | _ -> Alcotest.fail "did not finish"

(* --- properties --- *)

let prop_generated_scripts_validate =
  QCheck.Test.make ~name:"generated workloads validate with no errors" ~count:40
    QCheck.(quad (int_range 1 20) (int_range 1 12) (int_range 1 6) (int_range 1 6))
    (fun (n, width, depth, k) ->
      let scripts =
        [
          fst (Workloads.chain ~n);
          fst (Workloads.fanout ~width);
          fst (Workloads.nested ~depth);
          fst (Workloads.alternatives ~k ~alive:(1 + (n mod k)));
        ]
      in
      List.for_all
        (fun src ->
          match Frontend.load src with Ok _ -> true | Error _ -> false)
        scripts)

let prop_generated_scripts_roundtrip =
  QCheck.Test.make ~name:"generated workloads round-trip through the pretty-printer" ~count:30
    QCheck.(pair (int_range 1 15) (int_range 1 8))
    (fun (n, width) ->
      let roundtrips src =
        let ast = Parser.script src in
        let printed = Pretty.to_string ast in
        Pretty.to_string (Parser.script printed) = printed
      in
      roundtrips (fst (Workloads.chain ~n)) && roundtrips (fst (Workloads.fanout ~width)))

let prop_chains_complete =
  QCheck.Test.make ~name:"chains of any length complete with n dispatches" ~count:15
    QCheck.(int_range 1 30)
    (fun n ->
      let tb, _, status = run_workload (Workloads.chain ~n) in
      finished status && Engine.dispatches_total tb.Testbed.engine = n)

let prop_alternatives_any_alive_position =
  QCheck.Test.make ~name:"any alive-alternative position completes" ~count:20
    QCheck.(pair (int_range 1 8) (int_range 0 100))
    (fun (k, r) ->
      let alive = 1 + (r mod k) in
      let _, _, status = run_workload (Workloads.alternatives ~k ~alive) in
      finished status)

let prop_deterministic_runs =
  QCheck.Test.make ~name:"same workload, same seed, same trace" ~count:10
    QCheck.(int_range 2 12)
    (fun n ->
      let run () =
        let tb, _, _ = run_workload (Workloads.chain ~n) in
        Engine.trace tb.Testbed.engine
      in
      run () = run ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_generated_scripts_validate;
      prop_generated_scripts_roundtrip;
      prop_chains_complete;
      prop_alternatives_any_alive_position;
      prop_deterministic_runs;
    ]

let () =
  Alcotest.run "workloads"
    [
      ( "structure",
        [
          Alcotest.test_case "chain dispatch count" `Quick test_chain_dispatch_count;
          Alcotest.test_case "fanout dispatch count" `Quick test_fanout_dispatch_count;
          Alcotest.test_case "fanout parallelism" `Quick test_fanout_parallelism;
          Alcotest.test_case "nested single worker" `Quick test_nested_single_worker;
          Alcotest.test_case "alternatives payload" `Quick test_alternatives_payload_flows;
        ] );
      ("properties", qsuite);
    ]
