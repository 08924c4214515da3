(* The incremental scheduler against the reference full rescan.

   The full rescan [Sched.scan] re-evaluates every task of an instance;
   it is the reference the push-based path ([Sched.scan_from] through
   the reverse-dependency index) must agree with:

   - pointwise: on a fresh instance, a scan from [All] equals the full
     scan, and a scan from an empty dirty set is empty;
   - on every pass: a shadow pump drives an instance with no engine, no
     store and no simulator, and on each pass asserts that both scans
     yield the same effectful actions in the same dispatch order. Which
     running leaf completes next, and whether it completes before the
     pending pass runs, is drawn from a seed, so the dirty sets cover
     many interleavings;
   - end to end: the fault-free engine and the independent [Baseline]
     interpreter reach the same final status on random DAGs, and an
     engine crash mid-run still reaches the fault-free result. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let pkey = Wstate.path_to_string

(* --- the shadow pump --- *)

(* The final outcome of a leaf's bound implementation run on its chosen
   inputs (the generated workloads release no marks). *)
let leaf_outcome reg inst ~code ~path ~attempt =
  match (Registry.find reg ~code, Instate.get_chosen inst path) with
  | Some (Registry.Fn fn), Some c ->
    let ctx =
      {
        Registry.attempt;
        input_set = c.Wstate.c_set;
        inputs = c.Wstate.c_inputs;
        rng = Rng.create 1L;
      }
    in
    (fn ctx).Registry.finish
  | _ -> Alcotest.failf "cannot run %s at %s" code (pkey path)

(* Drive one instance of [script] to conclusion. Each step either runs
   the pending pass — checking [scan_from] over exactly the paths
   touched since the previous pass against the full [scan] — or
   completes one live running leaf through [Sched.report_decision];
   [rand] picks the step and the leaf. *)
let shadow_pump ~rand (script, root) =
  let schema =
    match Frontend.compile script ~root with
    | Ok schema -> schema
    | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_to_string e)
  in
  let reg = Registry.create () in
  Workloads.register reg;
  let effective = Registry.effective reg in
  let inst =
    Instate.create ~iid:"sp" ~script_text:script ~schema ~status:Wstate.Wf_running
      ~external_inputs:Workloads.seed_inputs
  in
  let idx = Sched.build_index ~effective schema in
  let pending = ref Sched.All in
  (* tracked apart from [pending], so a dirty set that lost a change
     still triggers the pass that exposes it *)
  let changed = ref true in
  let passes = ref 0 in
  let apply action =
    Instate.apply_action_mirror inst ~now:0 ~deadline_of:(fun _ -> 0) action;
    pending := Sched.add_dirty !pending [ Sched.action_path action ];
    changed := true
  in
  (* as in the engine: timers already armed for their attempt are
     dropped, the rest get armed, and the effectful actions are applied
     in dispatch order *)
  let armed = inst.Instate.timers_armed in
  let split actions =
    let arms, rest = List.partition (function Sched.Arm_timer _ -> true | _ -> false) actions in
    let fresh =
      List.filter_map
        (function
          | Sched.Arm_timer { a_path; a_set; a_attempt; _ } ->
            let key = pkey a_path ^ "|" ^ a_set in
            if Hashtbl.find_opt armed key = Some a_attempt then None else Some (key, a_attempt)
          | _ -> None)
        arms
    in
    (List.sort compare fresh, Sched.prioritise rest)
  in
  let pass () =
    incr passes;
    let v = Instate.view inst ~effective in
    let arms, actions = split (Sched.scan v ~root:schema) in
    let arms', actions' = split (Sched.scan_from idx v ~root:schema ~dirty:!pending) in
    pending := Sched.no_dirty;
    changed := false;
    if actions' <> actions || arms' <> arms then
      Alcotest.failf "pass %d: scan_from disagrees with scan (%d vs %d actions)" !passes
        (List.length actions') (List.length actions);
    List.iter (fun (key, attempt) -> Hashtbl.replace armed key attempt) arms;
    List.iter apply actions
  in
  let complete (path, task, attempt, _) =
    let code = match effective task with Sched.E_fn code -> code | _ -> assert false in
    let r = leaf_outcome reg inst ~code ~path ~attempt in
    match
      Sched.report_decision (Instate.view inst ~effective) ~task ~path ~attempt ~is_mark:false
        ~output:r.Registry.output ~objects:r.Registry.objects
    with
    | Sched.D_apply action -> apply action
    | Sched.D_fail reason -> apply (Sched.fail_action task ~path ~attempt ~reason)
    | Sched.D_retry | Sched.D_auto_restart | Sched.D_ignore ->
      Alcotest.failf "unexpected report decision for %s" (pkey path)
  in
  let rec loop () =
    if !passes > 10_000 then Alcotest.fail "shadow pump did not conclude";
    match Instate.get_state inst [ schema.Schema.name ] with
    | Some (Wstate.Done _ | Wstate.Failed _) -> ()
    | _ -> (
      let v = Instate.view inst ~effective in
      let leaves =
        Instate.running_leaves inst ~effective
        |> List.filter (fun (path, _, _, _) -> Sched.task_live v path)
        |> List.sort compare
      in
      match (!changed, leaves) with
      | false, [] -> Alcotest.fail "shadow pump stalled before the root concluded"
      | true, _ when leaves = [] || Random.State.bool rand -> pass (); loop ()
      | _ -> complete (List.nth leaves (Random.State.int rand (List.length leaves))); loop ())
  in
  loop ()

(* --- end to end: engine vs the baseline interpreter --- *)

(* One engine run of [script]: final status and final task states. *)
let engine_run ?faults (script, root) =
  let tb = Testbed.make () in
  Workloads.register tb.Testbed.registry;
  Option.iter (Testbed.apply_faults tb) faults;
  match
    Testbed.launch_and_run ~until:(Sim.sec 120) tb ~script ~root ~inputs:Workloads.seed_inputs
  with
  | Error e -> Alcotest.failf "launch failed: %s" e
  | Ok (iid, status) -> (status, Engine.task_states tb.Testbed.engine iid)

let baseline_status (script, root) =
  let sim = Sim.create () in
  let node = Network.add_node (Network.create sim) ~id:"b0" in
  let registry = Registry.create () in
  Workloads.register registry;
  let b = Baseline.create ~sim ~node ~registry in
  match Baseline.launch b ~script ~root ~inputs:Workloads.seed_inputs with
  | Error e -> Alcotest.failf "baseline launch failed: %s" e
  | Ok iid ->
    Sim.run ~until:(Sim.sec 120) sim;
    Baseline.status b iid

let status_string s = Format.asprintf "%a" Wstate.pp_status s

(* --- randomized workflow DAGs --- *)

(* n tasks t1..tn inside one compound; each ti consumes the root input,
   one predecessor, an ordered-alternatives list of predecessors, or a
   multi-object join of predecessors. The root outcome sources from tn,
   so conclusion can race still-running branches (scope suppression is
   part of what must stay equivalent). *)
type dag_node =
  | From_root
  | Alternatives of int list  (* one input object, ordered sources *)
  | Join of int list  (* one input object per predecessor *)

let dag_script nodes =
  let n = Array.length nodes in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    {|
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
taskclass Rand {
    inputs { input main { data of class Data } };
    outputs { outcome finished { data of class Data } }
};
|};
  (* one join taskclass per arity in use *)
  let arities =
    List.sort_uniq compare
      (Array.to_list nodes
      |> List.filter_map (function Join ps when List.length ps > 1 -> Some (List.length ps) | _ -> None))
  in
  List.iter
    (fun a ->
      Buffer.add_string b (Printf.sprintf "taskclass Join%d {\n    inputs { input main {\n" a);
      for i = 1 to a do
        Buffer.add_string b
          (Printf.sprintf "        d%d of class Data%s\n" i (if i = a then "" else ";"))
      done;
      Buffer.add_string b "    } };\n    outputs { outcome done { data of class Data } }\n};\n")
    arities;
  Buffer.add_string b "compoundtask rand of taskclass Rand {\n";
  Array.iteri
    (fun i node ->
      let name = Printf.sprintf "t%d" (i + 1) in
      let src j = Printf.sprintf "data of task t%d if output done" j in
      match node with
      | Join ps when List.length ps > 1 ->
        Buffer.add_string b
          (Printf.sprintf
             "    task %s of taskclass Join%d {\n\
             \        implementation { \"code\" is \"w.join\" };\n\
             \        inputs { input main {\n"
             name (List.length ps));
        List.iteri
          (fun k j ->
            Buffer.add_string b
              (Printf.sprintf "            inputobject d%d from { %s };\n" (k + 1) (src j)))
          ps;
        Buffer.add_string b "        } }\n    };\n"
      | From_root | Alternatives [] | Join [] ->
        Buffer.add_string b
          (Printf.sprintf
             "    task %s of taskclass Step {\n\
             \        implementation { \"code\" is \"w.step\" };\n\
             \        inputs { input main { inputobject data from { data of task rand if input \
              main } } }\n\
             \    };\n"
             name)
      | Alternatives ps | Join ps ->
        Buffer.add_string b
          (Printf.sprintf
             "    task %s of taskclass Step {\n\
             \        implementation { \"code\" is \"w.step\" };\n\
             \        inputs { input main { inputobject data from { %s } } }\n\
             \    };\n"
             name
             (String.concat "; " (List.map src ps))))
    nodes;
  Buffer.add_string b
    (Printf.sprintf
       "    outputs { outcome finished { outputobject data from { data of task t%d if output \
        done } } }\n\
        }\n"
       n);
  (Buffer.contents b, "rand")

let gen_dag =
  QCheck.Gen.(
    int_range 2 9 >>= fun n ->
    let node i =
      if i = 0 then return From_root
      else
        (* up to 3 predecessors from t1..ti *)
        list_size (int_range 0 (min 3 i)) (int_range 1 i) >>= fun ps ->
        let ps = List.sort_uniq compare ps in
        match ps with
        | [] -> return From_root
        | [ _ ] -> return (Join ps)
        | _ -> oneofl [ Alternatives ps; Join ps ]
    in
    let rec build i acc =
      if i >= n then return (Array.of_list (List.rev acc))
      else node i >>= fun nd -> build (i + 1) (nd :: acc)
    in
    build 0 [])

let prop_random_dags =
  QCheck.Test.make ~name:"incremental = full rescan on random DAGs" ~count:40
    (QCheck.make
       QCheck.Gen.(pair gen_dag (int_bound 1_000_000))
       ~print:(fun (nodes, seed) -> Printf.sprintf "seed %d\n%s" seed (fst (dag_script nodes))))
    (fun (nodes, seed) ->
      let workload = dag_script nodes in
      shadow_pump ~rand:(Random.State.make [| seed |]) workload;
      let engine, _ = engine_run workload in
      (match baseline_status workload with
      | Some baseline when baseline = engine -> ()
      | Some baseline ->
        Alcotest.failf "engine %s, baseline %s" (status_string engine) (status_string baseline)
      | None -> Alcotest.fail "baseline lost the instance");
      true)

(* --- the structured workload families --- *)

let test_families () =
  List.iter
    (fun workload ->
      for seed = 1 to 8 do
        shadow_pump ~rand:(Random.State.make [| seed |]) workload
      done)
    [
      Workloads.chain ~n:12;
      Workloads.fanout ~width:6;
      Workloads.nested ~depth:5;
      Workloads.alternatives ~k:4 ~alive:3;
    ]

let test_crash_recovery () =
  (* an engine crash mid-run (the fault-free chain concludes at 10ms)
     replays the instance from the store, re-dispatches the orphaned
     task and still reaches the fault-free result; attempts may differ *)
  let workload = Workloads.chain ~n:10 in
  let faults = Fault.crash_restart ~node:"n0" ~at:(Sim.ms 5) ~down_for:(Sim.ms 50) in
  let status, states = engine_run ~faults workload in
  let clean_status, clean_states = engine_run workload in
  check "crash/recovery: fault-free final status" true (status = clean_status);
  check "crash/recovery: fault-free task outputs" true
    (Harness.task_outcomes states = Harness.task_outcomes clean_states)

(* --- pointwise: scan_from against scan on a fresh instance --- *)

let pointwise (script, root) =
  match Frontend.compile script ~root with
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_to_string e)
  | Ok schema ->
    let effective t = Registry.effective (Registry.create ()) t in
    let inst =
      Instate.create ~iid:"pw" ~script_text:script ~schema ~status:Wstate.Wf_running
        ~external_inputs:Workloads.seed_inputs
    in
    let v = Instate.view inst ~effective in
    let idx = Sched.build_index ~effective schema in
    let full = Sched.scan v ~root:schema in
    let from_all = Sched.scan_from idx v ~root:schema ~dirty:Sched.All in
    check "scan_from All = scan" true (from_all = full);
    check "scan_from clean = []" true (Sched.scan_from idx v ~root:schema ~dirty:Sched.no_dirty = []);
    (* the launch frontier is exactly what marking the root dirty finds *)
    let from_root =
      Sched.scan_from idx v ~root:schema ~dirty:(Sched.Paths [ [ schema.Schema.name ] ])
    in
    check "root-dirty finds the launch frontier" true (from_root = full)

let test_pointwise () =
  pointwise (Workloads.chain ~n:8);
  pointwise (Workloads.fanout ~width:4);
  pointwise (Workloads.nested ~depth:4);
  pointwise (Workloads.alternatives ~k:3 ~alive:2)

(* --- deterministic backoff jitter --- *)

let jitter_policy =
  {
    Sched.rp_codes = [ "w.step" ];
    rp_per_code = 8;
    rp_base_total = 8;
    rp_grand_total = 8;
    rp_backoff_ms = 5;
    rp_jitter_ms = 4;
    rp_backoff_max_ms = Some 40;
    rp_timeout_ms = None;
    rp_on_timeout = Ast.Ta_abort;
    rp_compensate = None;
    rp_declared = true;
  }

let test_jitter_deterministic_and_bounded () =
  let j ~salt ~iid ~attempt =
    Sched.policy_jitter_ms jitter_policy ~salt ~iid ~path:[ "w"; "step" ] ~attempt
  in
  (* pure: the same coordinates always hash to the same offset *)
  check "same inputs, same jitter" true
    (List.for_all (fun a -> j ~salt:"s" ~iid:"wf-1" ~attempt:a = j ~salt:"s" ~iid:"wf-1" ~attempt:a)
       [ 1; 2; 3; 7 ]);
  (* bounded strictly below the declared jitter width *)
  List.iter
    (fun a ->
      let v = j ~salt:"s" ~iid:"wf-1" ~attempt:a in
      check (Printf.sprintf "attempt %d in [0, 4)" a) true (v >= 0 && v < 4))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  (* the salt actually spreads: two engines (different salts) don't all
     collide on the same offsets across a few attempts *)
  let offsets salt = List.map (fun a -> j ~salt ~iid:"wf-1" ~attempt:a) [ 1; 2; 3; 4; 5; 6; 7 ] in
  check "different salts give different spreads" true (offsets "s1" <> offsets "s2");
  (* immediate attempts stay immediate: no jitter without a backoff *)
  check "first attempt of a band has no delay" true
    (Sched.policy_backoff_jittered_ms jitter_policy ~salt:"s" ~iid:"wf-1"
       ~path:[ "w"; "step" ] ~attempt:1
    = 0);
  (* a delayed retry lands in [base, base + jitter) *)
  let d =
    Sched.policy_backoff_jittered_ms jitter_policy ~salt:"s" ~iid:"wf-1"
      ~path:[ "w"; "step" ] ~attempt:2
  in
  check "second attempt in [5, 9)" true (d >= 5 && d < 9);
  (* jitter off -> plain exponential backoff, bit for bit *)
  let plain = { jitter_policy with Sched.rp_jitter_ms = 0 } in
  List.iter
    (fun a ->
      check_int
        (Printf.sprintf "no jitter = plain backoff (attempt %d)" a)
        (Sched.policy_backoff_ms plain ~attempt:a)
        (Sched.policy_backoff_jittered_ms plain ~salt:"s" ~iid:"wf-1" ~path:[ "w"; "step" ]
           ~attempt:a))
    [ 1; 2; 3; 4 ]

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_random_dags ]

let () =
  Alcotest.run "sched"
    [
      ( "equivalence",
        [
          Alcotest.test_case "workload families" `Quick test_families;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
          Alcotest.test_case "pointwise scan_from" `Quick test_pointwise;
        ] );
      ( "jitter",
        [
          Alcotest.test_case "deterministic and bounded" `Quick
            test_jitter_deterministic_and_bounded;
        ] );
      ("property", qsuite);
    ]
