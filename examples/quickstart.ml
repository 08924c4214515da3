(* Quickstart: the paper's Fig 1 — four tasks where t2 and t3 start once
   t1 finishes (dataflow from t1) and t4 joins both. Shows the minimal
   public-API path: build a testbed, register implementations, launch a
   script, read the outcome and the execution trace.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A one-node simulated cluster with engine + transaction stack. *)
  let tb = Testbed.make () in

  (* Bind the three implementation names the script references. *)
  Impls.register_quickstart tb.Testbed.registry;

  (* Launch the Fig 1 diamond with an external seed object and run the
     simulation until it drains. *)
  let result =
    Testbed.launch_and_run tb ~script:Paper_scripts.quickstart
      ~root:Paper_scripts.quickstart_root
      ~inputs:[ ("seed", Value.obj ~cls:"Data" (Value.Int 21)) ]
  in
  (match result with
  | Ok (iid, Wstate.Wf_done { output; objects }) ->
    Format.printf "instance %s finished in outcome %s@." iid output;
    List.iter (fun (name, obj) -> Format.printf "  %s = %a@." name Value.pp_obj obj) objects
  | Ok (_, status) -> Format.printf "unexpected status: %a@." Wstate.pp_status status
  | Error e -> Format.printf "error: %s@." e);

  (* The trace regenerates Fig 1's ordering: t2/t3 released together
     after t1, t4 after both. *)
  print_endline "\nexecution trace:";
  List.iter
    (fun (at, ev) -> Format.printf "[%8d us] %a@." at Event.pp ev)
    (Engine.trace tb.Testbed.engine);

  print_endline "\ntimeline (the paper's Fig 1, as a Gantt chart):";
  print_string (Gantt.render (Engine.trace tb.Testbed.engine));

  (* And the structure itself, as Graphviz (paper Fig 1). *)
  (match Frontend.compile Paper_scripts.quickstart ~root:Paper_scripts.quickstart_root with
  | Ok schema ->
    print_endline "\ngraphviz (render with `dot -Tpng`):";
    print_string (Dot.of_task schema)
  | Error e -> Format.printf "compile error: %s@." (Frontend.error_to_string e))
