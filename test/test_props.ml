(* Generative properties across the stack:
   - random syntactic ASTs round-trip through the pretty-printer/parser;
   - random Value trees round-trip through the persistence codec;
   - the wire decoder never fails with anything but Malformed on fuzz;
   - the engine completes chain workloads under random crash schedules
     (the paper's "eventually receives inputs despite a finite number of
     crashes" claim, searched over schedules rather than hand-picked). *)

let check = Alcotest.(check bool)

(* --- random AST generation (syntactic, not semantic) --- *)

let gen_name =
  QCheck.Gen.(map (fun (c, n) -> Printf.sprintf "%c%d" c n) (pair (char_range 'a' 'z') (int_bound 99)))

let gen_cname =
  QCheck.Gen.(map (fun (c, n) -> Printf.sprintf "%c%d" c n) (pair (char_range 'A' 'Z') (int_bound 99)))

let gen_cond =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Ast.On_output n) gen_name);
        (2, map (fun n -> Ast.On_input n) gen_name);
        (1, return Ast.Any);
      ])

let gen_object_source =
  QCheck.Gen.(
    map3
      (fun os_object os_task os_cond -> { Ast.os_object; os_task; os_cond; os_loc = Loc.dummy })
      gen_name gen_name gen_cond)

let gen_notif_source =
  QCheck.Gen.(
    map2 (fun ns_task ns_cond -> { Ast.ns_task; ns_cond; ns_loc = Loc.dummy }) gen_name gen_cond)

let gen_input_dep =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map2
            (fun d_name d_sources -> Ast.Dep_object { d_name; d_sources; d_loc = Loc.dummy })
            gen_name
            (list_size (int_range 1 3) gen_object_source) );
        (1, map (fun l -> Ast.Dep_notification l) (list_size (int_range 1 3) gen_notif_source));
      ])

let gen_input_set_spec =
  QCheck.Gen.(
    map2
      (fun iss_name iss_deps -> { Ast.iss_name; iss_deps; iss_loc = Loc.dummy })
      gen_name
      (list_size (int_range 0 3) gen_input_dep))

let gen_impl =
  QCheck.Gen.(
    list_size (int_range 0 3)
      (pair (oneofl [ "code"; "location"; "deadline"; "priority"; "agent" ]) gen_name))

let gen_task_decl =
  QCheck.Gen.(
    map3
      (fun td_name (td_class, td_impl) td_inputs ->
        { Ast.td_name; td_class; td_impl; td_recovery = []; td_inputs; td_loc = Loc.dummy })
      gen_name (pair gen_cname gen_impl)
      (list_size (int_range 0 2) gen_input_set_spec))

let gen_object_decl =
  QCheck.Gen.(
    map2 (fun od_name od_class -> { Ast.od_name; od_class; od_loc = Loc.dummy }) gen_name gen_cname)

let gen_output_kind =
  QCheck.Gen.oneofl [ Ast.Outcome; Ast.Abort_outcome; Ast.Repeat_outcome; Ast.Mark ]

let gen_output_decl =
  QCheck.Gen.(
    map3
      (fun outd_kind outd_name outd_objects ->
        { Ast.outd_kind; outd_name; outd_objects; outd_loc = Loc.dummy })
      gen_output_kind gen_name
      (list_size (int_range 0 3) gen_object_decl))

let gen_taskclass_decl =
  QCheck.Gen.(
    map3
      (fun tcd_name input_sets tcd_outputs ->
        let tcd_input_sets =
          List.map
            (fun (isd_name, isd_objects) -> { Ast.isd_name; isd_objects; isd_loc = Loc.dummy })
            input_sets
        in
        { Ast.tcd_name; tcd_input_sets; tcd_outputs; tcd_loc = Loc.dummy })
      gen_cname
      (list_size (int_range 0 2) (pair gen_name (list_size (int_range 0 3) gen_object_decl)))
      (list_size (int_range 0 3) gen_output_decl))

let gen_output_binding =
  QCheck.Gen.(
    map3
      (fun ob_kind ob_name deps -> { Ast.ob_kind; ob_name; ob_deps = deps; ob_loc = Loc.dummy })
      gen_output_kind gen_name
      (list_size (int_range 0 2)
         (frequency
            [
              ( 2,
                map2
                  (fun o_name o_sources -> Ast.Out_object { o_name; o_sources; o_loc = Loc.dummy })
                  gen_name
                  (list_size (int_range 1 2) gen_object_source) );
              (1, map (fun l -> Ast.Out_notification l) (list_size (int_range 1 2) gen_notif_source));
            ])))

let gen_compound_decl =
  QCheck.Gen.(
    map3
      (fun cd_name (cd_class, cd_inputs) (constituents, cd_outputs) ->
        {
          Ast.cd_name;
          cd_class;
          cd_impl = [];
          cd_recovery = [];
          cd_inputs;
          cd_constituents = List.map (fun td -> Ast.C_task td) constituents;
          cd_outputs;
          cd_loc = Loc.dummy;
        })
      gen_name
      (pair gen_cname (list_size (int_range 0 2) gen_input_set_spec))
      (pair (list_size (int_range 0 3) gen_task_decl) (list_size (int_range 0 2) gen_output_binding)))

let gen_decl =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun cls_name -> Ast.D_class { cls_name; cls_parent = None; cls_loc = Loc.dummy }) gen_cname);
        ( 1,
          map2
            (fun cls_name parent ->
              Ast.D_class { cls_name; cls_parent = Some parent; cls_loc = Loc.dummy })
            gen_cname gen_cname );
        (3, map (fun tc -> Ast.D_taskclass tc) gen_taskclass_decl);
        (3, map (fun td -> Ast.D_task td) gen_task_decl);
        (2, map (fun cd -> Ast.D_compound cd) gen_compound_decl);
        ( 1,
          map3
            (fun ti_name ti_template ti_args ->
              Ast.D_template_inst { ti_name; ti_template; ti_args; ti_loc = Loc.dummy })
            gen_name gen_name
            (list_size (int_range 0 3) gen_name) );
      ])

let gen_script = QCheck.Gen.(list_size (int_range 1 8) gen_decl)

let arb_script = QCheck.make ~print:(fun ast -> Pretty.to_string ast) gen_script

let prop_pretty_parse_roundtrip =
  QCheck.Test.make ~name:"random ASTs round-trip through pretty-print + parse" ~count:300
    arb_script (fun ast ->
      let printed = Pretty.to_string ast in
      match Parser.script_result printed with
      | Error _ -> false
      | Ok reparsed -> Pretty.to_string reparsed = printed)

(* --- Value codec --- *)

let gen_value =
  QCheck.Gen.(
    sized
      (fix (fun self n ->
           if n <= 1 then
             frequency
               [
                 (1, return Value.Unit);
                 (2, map (fun b -> Value.Bool b) bool);
                 (3, map (fun i -> Value.Int i) int);
                 (3, map (fun s -> Value.Str s) string);
               ]
           else
             frequency
               [
                 (2, map (fun s -> Value.Str s) string);
                 (2, map (fun l -> Value.List l) (list_size (int_range 0 4) (self (n / 2))));
                 (1, map2 (fun a b -> Value.Pair (a, b)) (self (n / 2)) (self (n / 2)));
               ])))

let prop_value_roundtrip =
  QCheck.Test.make ~name:"values round-trip through the persistence codec" ~count:500
    (QCheck.make gen_value) (fun v -> Value.decode (Value.encode v) = v)

let prop_obj_bindings_roundtrip =
  QCheck.Test.make ~name:"object bindings round-trip" ~count:200
    QCheck.(make Gen.(list_size (int_range 0 5) (pair string_small gen_value)))
    (fun bindings ->
      let objs = List.map (fun (n, v) -> (n, Value.obj ~cls:("C" ^ n) v)) bindings in
      Value.decode_bindings (Value.encode_bindings objs) = objs)

(* --- wire fuzz --- *)

let prop_wire_fuzz_no_crash =
  QCheck.Test.make ~name:"wire decoder fails only with Malformed on fuzz" ~count:500
    QCheck.string (fun input ->
      match Wire.decode Wire.d_string input with
      | _ -> true
      | exception Wire.Malformed _ -> true)

let prop_task_state_codec_fuzz =
  QCheck.Test.make ~name:"task-state decoder fails only with Malformed on fuzz" ~count:300
    QCheck.string (fun input ->
      match Wstate.decode_value (Wstate.Task "") input with
      | _ -> true
      | exception Wire.Malformed _ -> true)

(* --- fault-schedule search --- *)

let prop_engine_survives_random_crash_schedules =
  (* a chain of 6 tasks (5ms each); up to 4 crash/recovery cycles at
     random instants within the first 400ms; the engine must still reach
     the right outcome with the seed intact. *)
  QCheck.Test.make ~name:"engine completes under arbitrary finite crash schedules" ~count:25
    QCheck.(
      make
        ~print:(fun (times, down) ->
          Printf.sprintf "crashes at %s ms, down %d ms"
            (String.concat "," (List.map string_of_int times))
            down)
        Gen.(pair (list_size (int_range 0 4) (int_range 1 400)) (int_range 10 50)))
    (fun (crash_times_ms, down_ms) ->
      let engine_config =
        { Engine.default_config with Engine.default_deadline = Sim.ms 80; system_max_attempts = 200 }
      in
      let tb = Testbed.make ~engine_config () in
      Workloads.register ~work:(Sim.ms 5) tb.Testbed.registry;
      let plan =
        List.concat_map
          (fun at_ms -> Fault.crash_restart ~node:"n0" ~at:(Sim.ms at_ms) ~down_for:(Sim.ms down_ms))
          (List.sort_uniq compare crash_times_ms)
      in
      (* crash_restart pairs can interleave out of order across cycles;
         Node.crash/recover are idempotent so this is safe *)
      Fault.apply tb.Testbed.sim plan ~on:(function
        | Fault.Crash n -> Testbed.crash tb n
        | Fault.Restart n -> Testbed.recover tb n
        | Fault.Partition_on _ | Fault.Partition_off _ -> ());
      let script, root = Workloads.chain ~n:6 in
      match
        Testbed.launch_and_run ~until:(Sim.sec 120) tb ~script ~root ~inputs:Workloads.seed_inputs
      with
      | Ok (_, Wstate.Wf_done { output = "finished"; objects }) -> (
        match List.assoc_opt "data" objects with
        | Some { Value.payload = Value.Str "seed"; _ } -> true
        | _ -> false)
      | _ -> false)

let prop_lossy_network_random_seeds =
  QCheck.Test.make ~name:"order processing completes under 30% loss for any seed" ~count:15
    QCheck.int64 (fun seed ->
      let config = { Network.default_config with Network.loss = 0.3 } in
      let tb = Testbed.make ~config ~seed () in
      Impls.register_process_order ~scenario:Impls.order_ok tb.Testbed.registry;
      match
        Testbed.launch_and_run ~until:(Sim.sec 120) tb ~script:Paper_scripts.process_order
          ~root:Paper_scripts.process_order_root
          ~inputs:[ ("order", Value.obj ~cls:"Order" (Value.Str "o")) ]
      with
      | Ok (_, Wstate.Wf_done { output = "orderCompleted"; _ }) -> true
      | _ -> false)

(* --- pure scheduler core (no Sim/Rpc/Txn: hand-built views) --- *)

(* Resolution without a registry: compound bodies expand structurally,
   simple tasks are leaves. Enough for Sched, which never dispatches. *)
let pure_effective (t : Schema.task) =
  match t.Schema.body with
  | Schema.Compound { children; bindings } ->
    Sched.E_compound { children; bindings; alias = t.Schema.name }
  | Schema.Simple -> Sched.E_fn t.Schema.name

let pure_view ?(states = []) ?(chosen = []) ?(marks = fun _ -> []) () =
  {
    Sched.v_effective = pure_effective;
    v_state = (fun p -> List.assoc_opt p states);
    v_chosen = (fun p -> List.assoc_opt p chosen);
    v_marks = marks;
    v_repeat = (fun _ -> None);
    v_timer_fired = (fun _ ~set:_ -> false);
    v_external = (fun _ -> None);
    v_running = true;
  }

let compile_or_fail script ~root =
  match Frontend.compile script ~root with
  | Ok schema -> schema
  | Error e -> QCheck.Test.fail_reportf "script does not compile: %s" (Frontend.error_to_string e)

(* The script's declared alternative order is the selection priority:
   whatever subset of producers has completed, the consumer's input must
   come from the first *declared* producer among them — never a later
   one, regardless of producer naming or completion pattern. *)
let buf_add = Buffer.add_string

let alt_script ~k ~order =
  let b = Buffer.create 1024 in
  buf_add b
    {|
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
taskclass Alt {
    inputs { input main { data of class Data } };
    outputs { outcome finished { data of class Data } }
};
compoundtask alt of taskclass Alt {
|};
  for i = 1 to k do
    buf_add b
      (Printf.sprintf
         {|    task p%d of taskclass Step {
        implementation { "code" is "w.p" };
        inputs { input main { inputobject data from { data of task alt if input main } } }
    };
|}
         i)
  done;
  buf_add b
    "    task consumer of taskclass Step {\n\
    \        implementation { \"code\" is \"w.step\" };\n\
    \        inputs { input main { inputobject data from {\n";
  List.iteri
    (fun pos i ->
      buf_add b
        (Printf.sprintf "            data of task p%d if output done%s\n" i
           (if pos = List.length order - 1 then "" else ";")))
    order;
  buf_add b
    {|        } } }
    };
    outputs { outcome finished { outputobject data from { data of task consumer if output done } } }
}
|};
  Buffer.contents b

let prop_alternative_order_respected =
  QCheck.Test.make
    ~name:"source selection always follows the declared alternative order" ~count:200
    QCheck.(
      make
        ~print:(fun (order, avail) ->
          Printf.sprintf "declared p%s, done {%s}"
            (String.concat ",p" (List.map string_of_int order))
            (String.concat ","
               (List.filteri (fun i _ -> List.nth avail i) (List.map string_of_int order))))
      Gen.(
        int_range 2 5 >>= fun k ->
        pair (shuffle_l (List.init k (fun i -> i + 1))) (list_repeat k bool)))
    (fun (order, avail) ->
      let k = List.length order in
      let schema = compile_or_fail (alt_script ~k ~order) ~root:"alt" in
      let seed = Value.obj ~cls:"Data" (Value.Str "seed") in
      let producer_states =
        List.map
          (fun i ->
            let st =
              if List.nth avail (i - 1) then
                Wstate.Done
                  {
                    attempt = 1;
                    output = "done";
                    kind = Ast.Outcome;
                    objects = [ ("data", Value.obj ~cls:"Data" (Value.Int i)) ];
                  }
              else Wstate.Failed "unavailable"
            in
            ([ "alt"; Printf.sprintf "p%d" i ], st))
          (List.init k (fun i -> i + 1))
      in
      let view =
        pure_view
          ~states:
            (([ "alt" ], Wstate.Running { attempt = 1; set = "main"; started = 0; deadline = max_int })
            :: producer_states)
          ~chosen:[ ([ "alt" ], { Wstate.c_set = "main"; c_inputs = [ ("data", seed) ] }) ]
          ()
      in
      let consumer_input =
        List.find_map
          (function
            | Sched.Start { a_path = [ "alt"; "consumer" ]; a_inputs; _ } ->
              Some (List.assoc_opt "data" a_inputs)
            | _ -> None)
          (Sched.scan view ~root:schema)
      in
      (* first available producer in *declared* order, not numeric order *)
      let expected = List.find_opt (fun i -> List.nth avail (i - 1)) order in
      match (expected, consumer_input) with
      | None, None -> true
      | Some i, Some (Some { Value.payload = Value.Int j; _ }) -> j = i
      | _ -> false)

(* Fig 3: once a task has released a mark it may no longer abort. An
   abort-outcome report after any mark must map to Fail_task — never to
   a completion and never to the "retries" auto-restart absorption —
   while the same report with no mark released follows the normal
   abort rules (absorbed while attempt <= retries, applied after).

   The validator rejects a taskclass declaring both an abort outcome
   and a mark, so no script reaches this rule; it is Sched's defence
   against a task host violating the protocol at runtime. The schema
   node is built directly to exercise it. *)
let risky_task ~retries =
  {
    Schema.name = "t";
    klass = "Risky";
    impl = [ ("code", "w.t"); ("retries", string_of_int retries) ];
    policy = Schema.no_policy;
    inputs =
      [
        {
          Schema.is_name = "main";
          is_notifications = [];
          is_objects = [ { Schema.io_name = "data"; io_class = "Data"; io_sources = [] } ];
        };
      ];
    outputs =
      [
        { Schema.out_kind = Ast.Outcome; out_name = "done"; out_objects = [ ("data", "Data") ] };
        { Schema.out_kind = Ast.Abort_outcome; out_name = "failed"; out_objects = [] };
        { Schema.out_kind = Ast.Mark; out_name = "progress"; out_objects = [ ("data", "Data") ] };
      ];
    body = Schema.Simple;
  }

let prop_mark_excludes_later_abort =
  QCheck.Test.make ~name:"a released mark excludes a later abort outcome" ~count:200
    QCheck.(
      make
        ~print:(fun (marked, attempt, retries) ->
          Printf.sprintf "marked=%b attempt=%d retries=%d" marked attempt retries)
        Gen.(triple bool (int_range 1 6) (int_range 0 4)))
    (fun (marked, attempt, retries) ->
      let task = risky_task ~retries in
      let path = [ "m"; "t" ] in
      let view =
        pure_view
          ~marks:(fun p ->
            if marked && p = path then
              [ ("progress", [ ("data", Value.obj ~cls:"Data" Value.Unit) ]) ]
            else [])
          ()
      in
      let d =
        Sched.report_decision view ~task ~path ~attempt ~is_mark:false ~output:"failed"
          ~objects:[]
      in
      if marked then
        match d with
        | Sched.D_apply (Sched.Fail_task { a_path; _ }) -> a_path = path
        | _ -> false
      else if attempt <= retries then d = Sched.D_auto_restart
      else
        match d with
        | Sched.D_apply (Sched.Complete { a_kind = Ast.Abort_outcome; a_path; _ }) -> a_path = path
        | _ -> false)

(* --- gantt smoke --- *)

let test_gantt_renders_fig1 () =
  let tb = Testbed.make () in
  Impls.register_quickstart tb.Testbed.registry;
  ignore
    (Testbed.launch_and_run tb ~script:Paper_scripts.quickstart
       ~root:Paper_scripts.quickstart_root
       ~inputs:[ ("seed", Value.obj ~cls:"Data" (Value.Int 1)) ]);
  let chart = Gantt.render (Engine.trace tb.Testbed.engine) in
  let lines = String.split_on_char '\n' chart in
  check "five rows (diamond + four tasks)" true
    (List.length (List.filter (fun l -> l <> "") lines) = 5);
  check "contains t4 row" true
    (List.exists
       (fun l -> String.length l > 10 && String.sub l 0 10 = "diamond/t4")
       lines)

let test_gantt_empty_trace () =
  Alcotest.(check string) "empty" "" (Gantt.render [])


let test_gantt_shows_running_tasks () =
  (* an instance cancelled mid-run renders open-ended bars *)
  let tb = Testbed.make () in
  Impls.register_process_order ~work:(Sim.ms 200) ~scenario:Impls.order_ok tb.Testbed.registry;
  (match
     Engine.launch tb.Testbed.engine ~script:Paper_scripts.process_order
       ~root:Paper_scripts.process_order_root
       ~inputs:[ ("order", Value.obj ~cls:"Order" (Value.Str "o")) ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "launch: %s" e);
  Sim.run ~until:(Sim.ms 50) tb.Testbed.sim;
  let chart = Gantt.render (Engine.trace tb.Testbed.engine) in
  let contains needle =
    let n = String.length needle and h = String.length chart in
    let rec at i = i + n <= h && (String.sub chart i n = needle || at (i + 1)) in
    at 0
  in
  check "open-ended bar for running task" true (contains "(running)")

(* --- names built without Printf, against the format strings --- *)

(* Every persisted key, history detail, request id and per-engine
   counter name on the per-task path is a concatenation; each must keep
   the bytes of the format string it replaced, for any ids (including
   separators and empty strings) and any number (including negative
   ones for the zero padding). *)
let gen_label =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; ':'; '/'; '#'; ' ' ]) (int_bound 6))

let builder_case_gen =
  QCheck.Gen.(
    quad gen_label (list_size (int_bound 3) gen_label) gen_label
      (oneof [ int; int_bound 2_000_000_000; map (fun n -> -n) small_nat; int_bound 99 ]))

let chain_schema =
  lazy
    (let script, root = Workloads.chain ~n:1 in
     match Frontend.compile script ~root with
     | Ok schema -> schema
     | Error e -> failwith (Frontend.error_to_string e))

let builders_match_formats (iid, path, set, n) =
  let p = Wstate.path_to_string path in
  let keys =
    [
      (Wstate.key iid Wstate.Dir, Printf.sprintf "wf:dir:%s" iid);
      (Wstate.key iid Wstate.Meta, Printf.sprintf "wf:%s:meta" iid);
      (Wstate.key iid Wstate.Reconf, Printf.sprintf "wf:%s:reconf" iid);
      (Wstate.key iid (Wstate.Task p), Printf.sprintf "wf:%s:t:%s" iid p);
      (Wstate.key iid (Wstate.Chosen p), Printf.sprintf "wf:%s:c:%s" iid p);
      (Wstate.key iid (Wstate.Marks p), Printf.sprintf "wf:%s:m:%s" iid p);
      (Wstate.key iid (Wstate.Repeat p), Printf.sprintf "wf:%s:r:%s" iid p);
      (Wstate.key iid (Wstate.Timer_fired (p, set)), Printf.sprintf "wf:%s:timer:%s:%s" iid p set);
      ( Wstate.key iid (Wstate.Timer_armed (p, set)),
        Printf.sprintf "wf:%s:timerarm:%s:%s" iid p set );
      (Wstate.key iid (Wstate.Backoff p), Printf.sprintf "wf:%s:b:%s" iid p);
      (Wstate.key iid (Wstate.Compensated p), Printf.sprintf "wf:%s:comp:%s" iid p);
      (Wstate.key_history iid n, Printf.sprintf "wf:%s:h:%09d" iid n);
      (Wstate.task_prefix iid, Printf.sprintf "wf:%s:" iid);
      (Wstate.history_prefix iid, Printf.sprintf "wf:%s:h:" iid);
      (Rpc.request_id ~src:iid n, Printf.sprintf "%s#%d" iid n);
    ]
  in
  let schema = Lazy.force chain_schema in
  let inst =
    Instate.create ~iid ~script_text:"" ~schema ~status:Wstate.Wf_running ~external_inputs:[]
  in
  let start =
    Sched.Start { a_path = path; a_task = schema; a_set = set; a_inputs = []; a_attempt = n }
  in
  let history =
    match Instate.action_rows inst ~now:0 ~deadline_of:(fun _ -> 0) start with
    | [ _; _; history ] -> (
      match Wstate.encode iid history with
      | key, Some row ->
        let _, kind, detail = Wstate.decode_history row in
        [
          (key, Printf.sprintf "wf:%s:h:%09d" iid 0);
          (kind ^ " " ^ detail, Printf.sprintf "start %s (attempt %d)" p n);
        ]
      | _, None -> [ ("history row", "a put") ])
    | _ -> [ ("rows", "task, chosen, history") ]
  in
  (* two sources, so names cached for one cannot serve the other *)
  let m = Metrics.create () and bus = Event.bus () in
  Metrics.attach_labelled m bus;
  let sources = [ iid; iid ^ "'" ] in
  List.iter
    (fun src ->
      let emit ev = Event.emit bus ~at:0 ~src ev in
      emit (Event.Task_dispatched { path = p; code = "c"; host = "h"; attempt = 1 });
      emit (Event.Impl_completed { path = p; output = "o" });
      emit (Event.Wf_launched { iid; root = "r" });
      emit (Event.Wf_concluded { iid; status = "done" });
      emit (Event.Recovery_replayed { instances = 1 }))
    sources;
  (* an unlabelled source is counted only in the totals *)
  let names = [ "dispatches"; "completions"; "launches"; "concluded"; "recoveries" ] in
  let counters =
    List.concat_map
      (fun src ->
        List.map
          (fun c -> (string_of_int (Metrics.value m (Printf.sprintf "cluster.%s.%s" src c)), "1"))
          (if src = "" then [] else names))
      sources
  in
  List.for_all (fun (built, formatted) -> String.equal built formatted) (keys @ history @ counters)

let prop_builders_match_formats =
  QCheck.Test.make ~name:"per-task name builders = their formats" ~count:500
    (QCheck.make builder_case_gen) builders_match_formats

(* Script identifiers: instance ids, task and input-set names. *)
let gen_name = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; '_' ]) (int_range 1 6))

(* Every kind of row decodes from its own store bytes, so recovery
   applies exactly the rows a live commit applied; a history key gives
   back its index. *)
let prop_rows_round_trip =
  QCheck.Test.make ~name:"rows decode from their own store bytes" ~count:300
    (QCheck.make
       QCheck.Gen.(
         quad gen_name (list_size (int_range 1 3) gen_name) gen_name (int_bound 1_000_000_000)))
    (fun (iid, path, set, n) ->
      let p = Wstate.path_to_string path in
      let objects = [ ("x", Value.obj ~cls:"C" (Value.Int n)) ] in
      let rows =
        Wstate.
          [
            Put
              ( Meta,
                {
                  m_script = "s";
                  m_root = "r";
                  m_inputs = objects;
                  m_status = Wf_done { output = "o"; objects };
                } );
            Put (Reconf, "script text");
            Put (Task p, Running { attempt = n; set; started = n; deadline = n + 1 });
            Put (Chosen p, { c_set = set; c_inputs = objects });
            Put (Marks p, [ ("m1", objects); ("m2", []) ]);
            Put (Repeat p, ("again", objects));
            Put (Timer_fired (p, set), ());
            Put (Timer_armed (p, set), n);
            Put (Backoff p, (n, n + 5));
            Put (Compensated p, ());
          ]
      in
      List.for_all
        (fun row ->
          match Wstate.encode iid row with
          | key, Some value -> Wstate.decode iid ~read:(fun _ -> Some value) key = Some row
          | _, None -> false)
        rows
      && Wstate.history_index iid (Wstate.key_history iid n) = Some n
      && Wstate.history_index iid (Wstate.key iid (Wstate.Task p)) = None)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pretty_parse_roundtrip;
      prop_value_roundtrip;
      prop_obj_bindings_roundtrip;
      prop_wire_fuzz_no_crash;
      prop_task_state_codec_fuzz;
      prop_engine_survives_random_crash_schedules;
      prop_lossy_network_random_seeds;
      prop_builders_match_formats;
      prop_rows_round_trip;
    ]

let sched_suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_alternative_order_respected; prop_mark_excludes_later_abort ]

let () =
  Alcotest.run "props"
    [
      ("generative", qsuite);
      ("sched", sched_suite);
      ( "gantt",
        [
          Alcotest.test_case "renders fig1" `Quick test_gantt_renders_fig1;
          Alcotest.test_case "running tasks open-ended" `Quick test_gantt_shows_running_tasks;
          Alcotest.test_case "empty trace" `Quick test_gantt_empty_trace;
        ] );
    ]
