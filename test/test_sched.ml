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
     engine crash mid-run still reaches the fault-free result;
   - durably: after every virtual instant of an engine run on a random
     DAG, the live mirror equals the one recovery rebuilds from the
     committed store.

   The shadow pump, engine = baseline and the mirror check are three
   named properties over one generator, so a failure names its check. *)

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
    List.iter (Instate.apply inst)
      (Instate.action_rows inst ~now:0 ~deadline_of:(fun _ -> 0) action);
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
            let key = (pkey a_path, a_set) in
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
  | Ok (iid, status) -> (status, Harness.task_states tb.Testbed.engine iid)

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

let arb_dag =
  QCheck.make
    QCheck.Gen.(pair gen_dag (int_bound 1_000_000))
    ~print:(fun (nodes, seed) -> Printf.sprintf "seed %d\n%s" seed (fst (dag_script nodes)))

(* The three random-DAG properties share the generator, so under one
   QCHECK_SEED each sees the same scripts. *)
let prop_random_dags =
  QCheck.Test.make ~name:"incremental = full rescan on random DAGs" ~count:40 arb_dag
    (fun (nodes, seed) ->
      shadow_pump ~rand:(Random.State.make [| seed |]) (dag_script nodes);
      true)

(* What two final statuses disagree on: each output object whose value
   differs ({!Wstate.pp_status} prints no objects), else the statuses. *)
let status_diff engine baseline =
  let show = function Some obj -> Format.asprintf "%a" Value.pp_obj obj | None -> "absent" in
  let objects =
    match (engine, baseline) with
    | Wstate.Wf_done { output; objects = ours }, Wstate.Wf_done { output = output'; objects = theirs }
      when output = output' ->
      List.sort_uniq compare (List.map fst ours @ List.map fst theirs)
      |> List.filter_map (fun name ->
             let a = List.assoc_opt name ours and b = List.assoc_opt name theirs in
             if a = b then None
             else
               Some
                 (Printf.sprintf "%s object %s: engine %s, baseline %s" output name (show a)
                    (show b)))
    | _ -> []
  in
  match objects with
  | [] -> Printf.sprintf "engine %s, baseline %s" (status_string engine) (status_string baseline)
  | _ -> String.concat "; " objects

let prop_engine_baseline =
  QCheck.Test.make ~name:"engine = baseline on random DAGs" ~count:40 arb_dag (fun (nodes, _) ->
      let workload = dag_script nodes in
      let engine, _ = engine_run workload in
      match baseline_status workload with
      | Some baseline when baseline = engine -> true
      | Some baseline -> Alcotest.fail (status_diff engine baseline)
      | None -> Alcotest.fail "baseline lost the instance")

(* The shape QCHECK_SEED 35 drew: t8 takes data from t3, else t5, else
   t6, and all three finish at one instant. Readiness is judged after
   every event of that instant, so declaration order decides, in the
   engine and in the baseline alike: t3, whose join says "joined". *)
let test_same_instant_alternatives () =
  let one = Join [ 1 ] in
  let workload =
    dag_script
      [| From_root; From_root; Join [ 1; 2 ]; one; one; one; one; Alternatives [ 3; 5; 6 ] |]
  in
  let data = function
    | Some (Wstate.Wf_done { objects; _ }) ->
      Option.fold ~none:"absent"
        ~some:(Format.asprintf "%a" Value.pp_obj)
        (List.assoc_opt "data" objects)
    | Some status -> status_string status
    | None -> "lost"
  in
  Alcotest.(check string)
    "engine picks t3" {|Data"joined"|}
    (data (Some (fst (engine_run workload))));
  Alcotest.(check string) "baseline picks t3" {|Data"joined"|} (data (baseline_status workload))

let prop_mirror =
  QCheck.Test.make ~name:"live mirror = committed store on random DAGs" ~count:40 arb_dag
    (fun (nodes, _) ->
      let script, root = dag_script nodes in
      let tb = Testbed.make () in
      Workloads.register tb.Testbed.registry;
      match Engine.launch tb.Testbed.engine ~script ~root ~inputs:Workloads.seed_inputs with
      | Error e -> Alcotest.failf "launch failed: %s" e
      | Ok iid ->
        Harness.check_mirror_through_run ~until:(Sim.sec 120) tb.Testbed.engine
          (Testbed.participant tb "n0") tb.Testbed.sim iid;
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

(* --- readiness: the short-circuit against resolve-everything --- *)

(* The verdicts as they were computed before they stopped at the first
   missing object: resolve every object, then decide. *)
let reference_try_input_set ctx ~path (s : Schema.input_set) =
  if not (Sched.notif_groups_satisfied ctx s.Schema.is_notifications) then `No
  else begin
    let set = s.Schema.is_name in
    let resolve (io : Schema.input_object) =
      Option.map (fun v -> (io.Schema.io_name, v)) (Sched.resolve_input ctx ~path ~set io)
    in
    let resolved = List.map resolve s.Schema.is_objects in
    if List.for_all Option.is_some resolved then `Yes (set, List.map Option.get resolved)
    else if
      List.exists2
        (fun (io : Schema.input_object) r ->
          r = None && io.Schema.io_sources = [] && io.Schema.io_class = "Timer")
        s.Schema.is_objects resolved
    then `Arm_timer set
    else `No
  end

let reference_binding_ready ctx (b : Schema.binding) =
  if not (Sched.notif_groups_satisfied ctx b.Schema.b_notifications) then None
  else begin
    let resolve (name, sources) =
      Option.map (fun v -> (name, v)) (List.find_map (Sched.obj_source_value ctx) sources)
    in
    let resolved = List.map resolve b.Schema.b_objects in
    if List.for_all Option.is_some resolved then Some (List.map Option.get resolved) else None
  end

(* The running scope [fanout] of [Workloads.fanout ~width:4]: siblings
   src, w1..w4 and join. [done_tasks] have finished with output done,
   [other_tasks] with output other; the join's timer has fired when
   [fired] holds. *)
let readiness_ctx ~done_tasks ~other_tasks ~fired =
  let schema =
    let script, root = Workloads.fanout ~width:4 in
    match Frontend.compile script ~root with
    | Ok schema -> schema
    | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_to_string e)
  in
  let children =
    match schema.Schema.body with
    | Schema.Compound { children; _ } -> children
    | Schema.Simple -> Alcotest.fail "fanout is not a compound"
  in
  let finished output name =
    Wstate.Done
      {
        attempt = 1;
        output;
        kind = Ast.Outcome;
        objects = [ ("data", Value.obj ~cls:"Data" (Value.Str name)) ];
      }
  in
  let v =
    {
      Sched.v_effective = Registry.effective (Registry.create ());
      v_state =
        (function
        | [ "fanout"; name ] when List.mem name done_tasks -> Some (finished "done" name)
        | [ "fanout"; name ] when List.mem name other_tasks -> Some (finished "other" name)
        | [ "fanout" ] ->
          Some (Wstate.Running { attempt = 1; set = "main"; started = 0; deadline = 0 })
        | _ -> None);
      v_chosen = (fun _ -> None);
      v_marks = (fun _ -> []);
      v_repeat = (fun _ -> None);
      v_timer_fired = (fun _ ~set:_ -> fired);
      v_external = (fun _ -> None);
      v_running = true;
    }
  in
  Sched.scope_ctx v ~scope:[ "fanout" ] ~alias:"fanout" ~children

let siblings = [ "src"; "w1"; "w2"; "w3"; "w4" ]

(* An object: a source-less timer, or data from some siblings (ordered
   alternatives). *)
type obj_spec = Timer | Data of string list

let data_source task = { Schema.s_task = task; s_obj = "data"; s_cond = Schema.C_output "done" }

let input_set ?(notifications = []) specs =
  {
    Schema.is_name = "main";
    is_notifications = notifications;
    is_objects =
      List.mapi
        (fun i spec ->
          match spec with
          | Timer ->
            { Schema.io_name = Printf.sprintf "t%d" i; io_class = "Timer"; io_sources = [] }
          | Data tasks ->
            {
              Schema.io_name = Printf.sprintf "d%d" i;
              io_class = "Data";
              io_sources = List.map data_source tasks;
            })
        specs;
  }

let notify task = { Schema.n_task = task; n_cond = Schema.C_output "done" }

let path = [ "fanout"; "join" ]

type readiness_case = {
  specs : obj_spec list;
  notifications : string list list;
  done_tasks : string list;
  other_tasks : string list;
  fired : bool;
}

let gen_readiness =
  QCheck.Gen.(
    let task = oneofl siblings in
    let data = map (fun ts -> Data ts) (list_size (int_range 1 2) task) in
    let spec = frequency [ (1, return Timer); (4, data) ] in
    let subset = list_size (int_bound 5) task in
    list_size (int_bound 6) spec >>= fun specs ->
    list_size (int_bound 2) (list_size (int_range 1 2) task) >>= fun notifications ->
    subset >>= fun done_tasks ->
    subset >>= fun other_tasks ->
    bool >>= fun fired -> return { specs; notifications; done_tasks; other_tasks; fired })

let print_readiness c =
  let spec = function Timer -> "timer" | Data ts -> "data(" ^ String.concat "|" ts ^ ")" in
  Printf.sprintf "objects [%s], notifications [%s], done [%s], other [%s], fired %b"
    (String.concat "; " (List.map spec c.specs))
    (String.concat "; " (List.map (String.concat "|") c.notifications))
    (String.concat "; " c.done_tasks) (String.concat "; " c.other_tasks) c.fired

let prop_short_circuit =
  QCheck.Test.make ~name:"short-circuit readiness = resolve everything" ~count:500
    (QCheck.make gen_readiness ~print:print_readiness)
    (fun c ->
      let ctx =
        readiness_ctx ~done_tasks:c.done_tasks ~other_tasks:c.other_tasks ~fired:c.fired
      in
      let notifications = List.map (List.map notify) c.notifications in
      let set = input_set ~notifications c.specs in
      let binding =
        {
          Schema.b_name = "finished";
          b_kind = Ast.Outcome;
          b_notifications = notifications;
          b_objects =
            List.filter_map
              (fun (io : Schema.input_object) ->
                match io.Schema.io_sources with
                | [] -> None
                | sources -> Some (io.Schema.io_name, sources))
              set.Schema.is_objects;
        }
      in
      Sched.try_input_set ctx ~path set = reference_try_input_set ctx ~path set
      && Sched.binding_ready ctx binding = reference_binding_ready ctx binding)

let test_short_circuit_timers () =
  let verdict ~fired specs =
    let ctx = readiness_ctx ~done_tasks:[ "w1" ] ~other_tasks:[] ~fired in
    let set = input_set specs in
    let got = Sched.try_input_set ctx ~path set in
    if got <> reference_try_input_set ctx ~path set then
      Alcotest.fail "short-circuit disagrees with the reference";
    match got with `Yes _ -> "start" | `Arm_timer _ -> "arm" | `No -> "none"
  in
  let check_verdict what expected got = Alcotest.(check string) what expected got in
  check_verdict "missing data ahead of an unfired timer arms it" "arm"
    (verdict ~fired:false [ Data [ "w1" ]; Data [ "w2" ]; Timer ]);
  check_verdict "an unfired timer ahead of missing data arms it" "arm"
    (verdict ~fired:false [ Timer; Data [ "w2" ] ]);
  check_verdict "fired timer, data missing after it: no start, no arm" "none"
    (verdict ~fired:true [ Timer; Data [ "w2" ] ]);
  check_verdict "fired timer, data missing before it: no start, no arm" "none"
    (verdict ~fired:true [ Data [ "w2" ]; Timer ]);
  check_verdict "fired timer, data present: start" "start"
    (verdict ~fired:true [ Data [ "w1" ]; Timer ]);
  check_verdict "no timer, data missing: none" "none" (verdict ~fired:false [ Data [ "w2"; "w3" ] ])

(* --- recovery-policy decisions --- *)

(* The policy of [w/step], compiled from a script whose step declares
   [recovery { <recovery> }]; [""] declares no recovery section. *)
let policy ?(default_max_attempts = 3) recovery =
  let section = if recovery = "" then "" else Printf.sprintf "recovery { %s };" recovery in
  let script =
    Printf.sprintf
      {|
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
compoundtask w of taskclass Step {
    task step of taskclass Step {
        implementation { "code" is "w.step" };
        %s
        inputs { input main { inputobject data from { data of task w if input main } } }
    };
    outputs { outcome done { outputobject data from { data of task step if output done } } }
}
|}
      section
  in
  match Frontend.compile script ~root:"w" with
  | Error e -> Alcotest.failf "compile: %s" (Frontend.error_to_string e)
  | Ok root -> (
    match Schema.find_child root "step" with
    | Some task -> Policy.resolve task ~default_max_attempts
    | None -> Alcotest.fail "no step")

let pp_decision ppf = function
  | Policy.Retry { attempt; delay_ms; code; substituted; cause } ->
    Format.fprintf ppf "Retry {attempt %d; delay %dms; code %s; substituted %b; cause %s}" attempt
      delay_ms code substituted
      (match cause with Policy.Failure -> "failure" | Policy.Timeout -> "timeout")
  | Policy.Give_up reason -> Format.fprintf ppf "Give_up %S" reason

let decision = Alcotest.testable pp_decision ( = )

let retry ?(delay_ms = 0) ?(substituted = false) ?(cause = Policy.Failure) attempt code =
  Policy.Retry { attempt; delay_ms; code; substituted; cause }

let after_failure rp ~attempt =
  Policy.after_failure rp ~salt:"s" ~iid:"wf-1" ~path:[ "w"; "step" ] ~attempt

let after_timeout rp ~attempt =
  Policy.after_timeout rp ~salt:"s" ~iid:"wf-1" ~path:[ "w"; "step" ] ~attempt

(* One case per branch of the two decisions: (what, decision, expected). *)
let test_policy_decisions () =
  let backoff = policy "retry 2 backoff 10" in
  let alternative = policy {|retry 1; alternative "w.alt"|} in
  let substitute = policy {|retry 1; timeout 50 then substitute "w.sub"|} in
  let abort = policy "timeout 50 then abort" in
  let jump = policy {|retry 1; timeout 50 then alternative; alternative "w.alt"|} in
  let single = policy {|retry 0; timeout 50 then alternative; alternative "w.alt"|} in
  let undeclared = policy "" in
  List.iter
    (fun (what, got, expected) -> Alcotest.check decision what expected got)
    [
      ("in-band retry with backoff", after_failure backoff ~attempt:1, retry ~delay_ms:10 2 "w.step");
      ("backoff doubles", after_failure backoff ~attempt:2, retry ~delay_ms:20 3 "w.step");
      ( "band advance substitutes at once",
        after_failure alternative ~attempt:2,
        retry ~substituted:true 3 "w.alt" );
      ("base ceiling", after_failure alternative ~attempt:4, Give_up "gave up after 4 attempts");
      ( "failures never enter the substitute band",
        after_failure substitute ~attempt:2,
        Give_up "gave up after 2 attempts" );
      ( "substitute band's grand ceiling",
        after_failure substitute ~attempt:4,
        Give_up "gave up after 4 attempts" );
      ( "undeclared timeout is a failure",
        after_timeout undeclared ~attempt:1,
        after_failure undeclared ~attempt:1 );
      ("undeclared budget", after_timeout undeclared ~attempt:3, Give_up "gave up after 3 attempts");
      ( "timeout without a timeout clause is a failure",
        after_timeout backoff ~attempt:1,
        retry ~delay_ms:10 2 "w.step" );
      ("abort", after_timeout abort ~attempt:1, Give_up "recovery timeout");
      ( "alternative jump",
        after_timeout jump ~attempt:1,
        retry ~substituted:true ~cause:Policy.Timeout 3 "w.alt" );
      ( "substitute jump",
        after_timeout substitute ~attempt:1,
        retry ~substituted:true ~cause:Policy.Timeout 3 "w.sub" );
      ( "stalled substitute retries within its band",
        after_timeout substitute ~attempt:3,
        retry 4 "w.sub" );
      ( "stalled substitute at the grand ceiling",
        after_timeout substitute ~attempt:4,
        Give_up "gave up after 4 attempts" );
      ( "alternatives exhausted",
        after_timeout jump ~attempt:3,
        Give_up "recovery alternatives exhausted" );
      ( "jump into the last base band",
        after_timeout single ~attempt:1,
        retry ~substituted:true ~cause:Policy.Timeout 2 "w.alt" );
    ];
  check "undeclared" false (Policy.declared undeclared);
  check "declared" true (Policy.declared backoff);
  Alcotest.(check (list string))
    "codes by attempt" [ "w.step"; "w.step"; "w.sub"; "w.sub"; "w.sub" ]
    (List.map (fun attempt -> Policy.code substitute ~attempt) [ 1; 2; 3; 4; 5 ])

(* --- deterministic backoff jitter --- *)

(* One band of 8 attempts: retries 2..8 back off 5, 10, 20, 40, 40, 40,
   40 ms (capped), plus a jitter in [0, 4) when declared. *)
let jittered = policy "retry 7 backoff 5 jitter 4 max 40"

let plain = policy "retry 7 backoff 5 max 40"

let delay rp ~salt ~iid ~attempt =
  match Policy.after_failure rp ~salt ~iid ~path:[ "w"; "step" ] ~attempt:(attempt - 1) with
  | Policy.Retry { delay_ms; _ } -> delay_ms
  | Policy.Give_up reason -> Alcotest.failf "attempt %d: %s" attempt reason

let retries = [ 2; 3; 4; 5; 6; 7; 8 ]

let test_jitter_deterministic_and_bounded () =
  (* the jitter of retry [attempt]: its delay over the plain backoff *)
  let j ~salt ~iid ~attempt =
    delay jittered ~salt ~iid ~attempt - delay plain ~salt ~iid ~attempt
  in
  (* pure: the same coordinates always hash to the same offset *)
  check "same inputs, same jitter" true
    (List.for_all (fun a -> j ~salt:"s" ~iid:"wf-1" ~attempt:a = j ~salt:"s" ~iid:"wf-1" ~attempt:a)
       [ 2; 3; 4; 8 ]);
  (* bounded strictly below the declared jitter width *)
  List.iter
    (fun a ->
      let v = j ~salt:"s" ~iid:"wf-1" ~attempt:a in
      check (Printf.sprintf "attempt %d in [0, 4)" a) true (v >= 0 && v < 4))
    retries;
  (* the salt actually spreads: two engines (different salts) don't all
     collide on the same offsets across a few attempts *)
  let offsets salt = List.map (fun a -> j ~salt ~iid:"wf-1" ~attempt:a) retries in
  check "different salts give different spreads" true (offsets "s1" <> offsets "s2");
  (* immediate attempts stay immediate: no jitter without a backoff *)
  let banded = policy {|retry 7 backoff 5 jitter 4 max 40; alternative "w.alt"|} in
  check "first attempt of a band has no delay" true
    (after_failure banded ~attempt:8 = retry ~substituted:true 9 "w.alt");
  (* a delayed retry lands in [base, base + jitter) *)
  let d = delay jittered ~salt:"s" ~iid:"wf-1" ~attempt:2 in
  check "second attempt in [5, 9)" true (d >= 5 && d < 9);
  (* jitter off -> plain exponential backoff, bit for bit *)
  List.iter2
    (fun a expected ->
      check_int
        (Printf.sprintf "no jitter = plain backoff (attempt %d)" a)
        expected
        (delay plain ~salt:"s" ~iid:"wf-1" ~attempt:a))
    retries [ 5; 10; 20; 40; 40; 40; 40 ]

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_random_dags; prop_engine_baseline; prop_mirror; prop_short_circuit ]

let () =
  Alcotest.run "sched"
    [
      ( "equivalence",
        [
          Alcotest.test_case "workload families" `Quick test_families;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
          Alcotest.test_case "pointwise scan_from" `Quick test_pointwise;
          Alcotest.test_case "same-instant alternatives" `Quick test_same_instant_alternatives;
        ] );
      ( "readiness",
        [ Alcotest.test_case "timers around a missing object" `Quick test_short_circuit_timers ] );
      ("policy", [ Alcotest.test_case "decisions" `Quick test_policy_decisions ]);
      ( "jitter",
        [
          Alcotest.test_case "deterministic and bounded" `Quick
            test_jitter_deterministic_and_bounded;
        ] );
      ("property", qsuite);
    ]
