(* Administration story (paper §3 + Fig 4): scripts live in the
   workflow repository service; applications are instantiated from it;
   a running application is dynamically reconfigured (a task added, an
   implementation rebound) under transactions, without stopping it.

   Run with: dune exec examples/online_upgrade.exe *)

let () =
  (* Repository on its own node, engine on another. *)
  let tb = Testbed.make ~nodes:[ "engine"; "repository" ] () in
  let repo = Repository.create ~node:(Testbed.node tb "repository") in
  let client = Repo_client.create ~rpc:tb.Testbed.rpc ~src:"engine" ~repo_node:"repository" in
  Impls.register_quickstart ~work:(Sim.ms 40) tb.Testbed.registry;

  (* 1. Store the script; the repository validates before accepting. *)
  (match Repository.store repo ~name:"diamond" ~source:Paper_scripts.quickstart with
  | Ok v -> Format.printf "stored script 'diamond' as version %d@." v
  | Error e -> failwith e);

  (* 2. Instantiate from the repository over RPC. *)
  let iid = ref "" in
  Repo_client.launch client ~engine:tb.Testbed.engine ~name:"diamond"
    ~root:Paper_scripts.quickstart_root
    ~inputs:[ ("seed", Value.obj ~cls:"Data" (Value.Int 7)) ]
    (function
      | Ok i ->
        iid := i;
        Format.printf "launched instance %s from the repository@." i
      | Error e -> failwith e);
  Sim.run ~until:(Sim.ms 30) tb.Testbed.sim;

  (* 3. Reconfigure the RUNNING instance: add an audit task (the t5 of
     the paper's §3 scenario) that observes t2. The new task brings its
     own declared recovery strategy — the engine compiles the section of
     a constituent added mid-run exactly as it would at launch, so the
     flaky first probe below is retried on the task's own budget, not
     the engine-wide one. *)
  let audit_probes = ref 0 in
  Registry.bind tb.Testbed.registry ~code:"quickstart.audit" (fun _ctx ->
      incr audit_probes;
      if !audit_probes = 1 then failwith "audit store not warmed up"
      else Registry.finish "audited" []);
  let audit_decl =
    {|
task t5 of taskclass Audit {
    implementation { "code" is "quickstart.audit" };
    recovery { retry 2 };
    inputs { input main { notification from { task t2 if output transformed } } }
}
|}
  in
  let transform ast =
    let audit_class =
      Parser.script "taskclass Audit { inputs { input main { } }; outputs { outcome audited { } } }"
    in
    Reconfig.add_constituent ~scope:[ "diamond" ] ~decl:audit_decl (audit_class @ ast)
  in
  Engine.reconfigure tb.Testbed.engine !iid ~transform (function
    | Ok () -> print_endline "reconfigured: task t5 added to the running instance"
    | Error e -> Format.printf "reconfiguration refused: %s@." e);

  (* 4. Upgrade an implementation online: rebinding the code name means
     tasks dispatched from now on run the new version — no script
     change, exactly the late-binding point of §3. *)
  Registry.bind tb.Testbed.registry ~code:"quickstart.join" (fun (ctx : Registry.context) ->
      let grab name =
        match List.assoc_opt name ctx.Registry.inputs with
        | Some { Value.payload = Value.List items; _ } -> items
        | _ -> []
      in
      Registry.finish "joined"
        [ ("data", Value.List (Value.Str "v2" :: (grab "left" @ grab "right"))) ]);
  print_endline "upgraded quickstart.join to v2 while the workflow is running";

  Testbed.run tb;
  (match Engine.status tb.Testbed.engine !iid with
  | Some (Wstate.Wf_done { output; objects }) ->
    Format.printf "instance finished in %s@." output;
    List.iter (fun (name, obj) -> Format.printf "  %s = %a@." name Value.pp_obj obj) objects
  | Some s -> Format.printf "status: %a@." Wstate.pp_status s
  | None -> print_endline "instance lost");
  (match
     Option.bind (Engine.mirror tb.Testbed.engine !iid) (fun m ->
         Instate.get_state m [ "diamond"; "t5" ])
   with
  | Some s -> Format.printf "t5 (added mid-run): %a@." Wstate.pp_task_state s
  | None -> print_endline "t5 never recorded");
  Format.printf "reconfigurations applied: %d@." (Engine.reconfigs_total tb.Testbed.engine);
  Format.printf "policy retries (t5's declared budget): %d@."
    (Engine.policy_retries_total tb.Testbed.engine)
