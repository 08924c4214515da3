(* End-to-end tests of the workflow execution service: the paper's three
   applications under every scenario, task transition rules (Fig 3),
   alternative sources, input-set priority, timers, marks, compensation,
   repeats, dynamic reconfiguration, online upgrade, and fault tolerance
   (host crashes, engine crash + recovery, lossy networks). *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

let run_script ?config ?engine_config ?seed ?nodes ~register ~script ~root ~inputs () =
  let tb = Testbed.make ?config ?engine_config ?seed ?nodes () in
  register tb.Testbed.registry;
  match Testbed.launch_and_run tb ~script ~root ~inputs with
  | Ok (iid, status) -> (tb, iid, status)
  | Error e -> Alcotest.failf "launch failed: %s" e

let expect_done ~output status =
  match status with
  | Wstate.Wf_done { output = o; objects } ->
    check_str "outcome" output o;
    objects
  | Wstate.Wf_running -> Alcotest.fail "instance still running"
  | Wstate.Wf_failed reason -> Alcotest.failf "instance failed: %s" reason

let obj_str objects name =
  match List.assoc_opt name objects with
  | Some { Value.payload = Value.Str s; _ } -> s
  | Some { Value.payload = v; _ } -> Format.asprintf "%a" Value.pp v
  | None -> Alcotest.failf "no object %s" name

(* Virtual time of the first event in the engine's log satisfying [p]. *)
let first_at tb what p =
  match List.find_opt (fun (_, ev) -> p ev) (Engine.trace tb.Testbed.engine) with
  | Some (at, _) -> at
  | None -> Alcotest.failf "no %s in the engine trace" what

let started_at tb path =
  first_at tb ("start of " ^ path) (function
    | Event.Task_started { path = p; attempt = 1 } -> p = path
    | _ -> false)

let completed_at tb path output =
  first_at tb (path ^ " -> " ^ output) (function
    | Event.Task_completed { path = p; output = o; _ } -> p = path && o = output
    | _ -> false)

let count_events tb p =
  List.length (List.filter (fun (_, ev) -> p ev) (Engine.trace tb.Testbed.engine))

(* --- Fig 1: quickstart diamond --- *)

let seed_input n = [ ("seed", Value.obj ~cls:"Data" (Value.Int n)) ]

let test_quickstart_completes () =
  let _, _, status =
    run_script ~register:(Impls.register_quickstart ?work:None)
      ~script:Paper_scripts.quickstart ~root:Paper_scripts.quickstart_root
      ~inputs:(seed_input 21) ()
  in
  let objects = expect_done ~output:"finished" status in
  check_str "t4 joined both doubled streams" "[42; 42]" (obj_str objects "data")

let test_quickstart_ordering_matches_fig1 () =
  let tb, _, _ =
    run_script ~register:(Impls.register_quickstart ?work:None)
      ~script:Paper_scripts.quickstart ~root:Paper_scripts.quickstart_root
      ~inputs:(seed_input 1) ()
  in
  let t1_done = completed_at tb "diamond/t1" "produced" in
  let t2_start = started_at tb "diamond/t2" in
  let t3_start = started_at tb "diamond/t3" in
  let t2_done = completed_at tb "diamond/t2" "transformed" in
  let t3_done = completed_at tb "diamond/t3" "transformed" in
  let t4_start = started_at tb "diamond/t4" in
  check "t2 after t1" true (t2_start >= t1_done);
  check "t3 after t1" true (t3_start >= t1_done);
  check "t2, t3 concurrent (same release time)" true (t2_start = t3_start);
  check "t4 after both" true (t4_start >= t2_done && t4_start >= t3_done)

(* --- §5.1 service impact --- *)

let alarms_input = [ ("alarmsSource", Value.obj ~cls:"AlarmsSource" (Value.Str "alarm-feed")) ]

let run_impact scenario =
  let _, _, status =
    run_script
      ~register:(Impls.register_service_impact ?work:None ~scenario)
      ~script:Paper_scripts.service_impact ~root:Paper_scripts.service_impact_root
      ~inputs:alarms_input ()
  in
  status

let test_impact_resolved () =
  let objects = expect_done ~output:"resolved" (run_impact Impls.Impact_resolved) in
  check_str "resolution report" "reroute+reschedule" (obj_str objects "resolutionReport")

let test_impact_not_resolved () =
  ignore (expect_done ~output:"notResolved" (run_impact Impls.Impact_not_resolved))

let test_impact_failure_fan_in () =
  ignore
    (expect_done ~output:"serviceImpactApplicationFailure"
       (run_impact Impls.Impact_correlator_fails))

let test_impact_no_fault_stalls () =
  (* The paper's script has no outcome for "no fault": the application
     legitimately waits forever. The engine reports quiescence. *)
  let tb, iid, status =
    run_script
      ~register:(Impls.register_service_impact ?work:None ~scenario:Impls.Impact_no_fault)
      ~script:Paper_scripts.service_impact ~root:Paper_scripts.service_impact_root
      ~inputs:alarms_input ()
  in
  check "still running" true (status = Wstate.Wf_running);
  check "quiescent (stuck)" true (Engine.quiescent tb.Testbed.engine iid)

(* --- §5.2 process order --- *)

let order_input = [ ("order", Value.obj ~cls:"Order" (Value.Str "order-42")) ]

let run_order scenario =
  run_script
    ~register:(Impls.register_process_order ?work:None ~scenario)
    ~script:Paper_scripts.process_order ~root:Paper_scripts.process_order_root
    ~inputs:order_input ()

let test_order_completes () =
  let _, _, status = run_order Impls.order_ok in
  let objects = expect_done ~output:"orderCompleted" status in
  check_str "dispatch note flows to the compound outcome" "parcel-001"
    (obj_str objects "dispatchNote")

let test_order_concurrent_auth_and_stock () =
  let tb, _, _ = run_order Impls.order_ok in
  check "auth and stock released together" true
    (started_at tb "processOrderApplication/paymentAuthorisation"
    = started_at tb "processOrderApplication/checkStock")

let test_order_cancelled_not_authorised () =
  let _, _, status = run_order { Impls.order_ok with Impls.authorised = false } in
  ignore (expect_done ~output:"orderCancelled" status)

let test_order_cancelled_no_stock () =
  let _, _, status = run_order { Impls.order_ok with Impls.in_stock = false } in
  ignore (expect_done ~output:"orderCancelled" status)

let test_order_cancelled_dispatch_aborts () =
  let tb, iid, status = run_order { Impls.order_ok with Impls.dispatch_ok = false } in
  ignore (expect_done ~output:"orderCancelled" status);
  (* dispatchFailed is an abort outcome: recorded as such on the task *)
  match
    Harness.task_state tb.Testbed.engine iid [ "processOrderApplication"; "dispatch" ]
  with
  | Some (Wstate.Done { kind = Ast.Abort_outcome; output; _ }) ->
    check_str "abort outcome name" "dispatchFailed" output
  | other ->
    Alcotest.failf "unexpected dispatch state: %s"
      (match other with
      | Some s -> Format.asprintf "%a" Wstate.pp_task_state s
      | None -> "none")

let test_order_payment_capture_never_runs_when_cancelled () =
  let tb, iid, _ = run_order { Impls.order_ok with Impls.authorised = false } in
  check "paymentCapture never started" true
    (Harness.task_state tb.Testbed.engine iid
       [ "processOrderApplication"; "paymentCapture" ]
    = None)

(* --- §5.3 business trip --- *)

let user_input = [ ("user", Value.obj ~cls:"User" (Value.Str "fred")) ]

let run_trip ?engine_config scenario =
  run_script ?engine_config
    ~register:(Impls.register_business_trip ?work:None ~scenario)
    ~script:Paper_scripts.business_trip ~root:Paper_scripts.business_trip_root ~inputs:user_input
    ()

let test_trip_smooth () =
  let tb, iid, status = run_trip Impls.trip_smooth in
  let objects = expect_done ~output:"done" status in
  check_str "tickets carry plane and hotel" "tickets[seat-12A@flight-klm, hotel-county]"
    (obj_str objects "tickets");
  (* the toPay mark was released during the run *)
  let marks =
    Instate.get_marks (Option.get (Engine.mirror tb.Testbed.engine iid)) [ "tripReservation" ]
  in
  check "toPay mark fired" true (List.mem_assoc "toPay" marks)

let test_trip_mark_before_completion () =
  let tb, _, _ = run_trip Impls.trip_smooth in
  let mark_at =
    first_at tb "toPay mark" (function
      | Event.Task_marked { path = "tripReservation"; mark = "toPay" } -> true
      | _ -> false)
  in
  let concluded = function Event.Wf_concluded _ -> true | _ -> false in
  check_int "exactly one instance completion" 1 (count_events tb concluded);
  let done_at = first_at tb "instance completion" concluded in
  check "mark released before the instance completed" true (mark_at <= done_at)

let test_trip_compensation_and_retry_loop () =
  let scenario = { Impls.trip_smooth with Impls.hotel_fails_rounds = 2 } in
  let tb, iid, status = run_trip scenario in
  ignore (expect_done ~output:"done" status);
  check_int "flightCancellation compensated twice" 2
    (count_events tb (function
      | Event.Task_completed { path; output = "cancelled"; _ } ->
        path = "tripReservation/businessReservation/flightCancellation"
      | _ -> false));
  check_int "businessReservation retried twice" 2
    (count_events tb (function Event.Task_repeated _ -> true | _ -> false));
  (* final incarnation recorded attempt 3 *)
  match Harness.task_state tb.Testbed.engine iid [ "tripReservation"; "businessReservation" ] with
  | Some (Wstate.Done { attempt; output; _ }) ->
    check_str "final outcome" "success" output;
    check_int "third attempt succeeded" 3 attempt
  | other ->
    Alcotest.failf "unexpected BR state: %s"
      (match other with Some s -> Format.asprintf "%a" Wstate.pp_task_state s | None -> "none")

let test_trip_inner_hotel_repeats () =
  let scenario = { Impls.trip_smooth with Impls.hotel_inner_retries = 2 } in
  let tb, _, status = run_trip scenario in
  ignore (expect_done ~output:"done" status);
  check_int "hotel repeated twice within the round" 2
    (count_events tb (function
      | Event.Task_repeated { path; _ } -> String.ends_with ~suffix:"/hotelReservation" path
      | _ -> false))

let test_trip_no_flight_cancelled () =
  let scenario = { Impls.trip_smooth with Impls.flights_found = (false, false, false) } in
  let _, _, status = run_trip scenario in
  ignore (expect_done ~output:"cancelled" status)

let test_trip_data_failure_cancelled () =
  let scenario = { Impls.trip_smooth with Impls.data_ok = false } in
  let _, _, status = run_trip scenario in
  ignore (expect_done ~output:"cancelled" status)

let test_trip_first_available_flight_wins () =
  (* only query2 finds a flight: the flightFound binding's alternative
     list must pick it up even though query1 is listed first *)
  let scenario = { Impls.trip_smooth with Impls.flights_found = (false, true, false) } in
  let _, _, status = run_trip scenario in
  let objects = expect_done ~output:"done" status in
  check_str "flight from query2" "tickets[seat-12A@flight-ba, hotel-county]"
    (obj_str objects "tickets")

(* --- timers (§4.2 idiom) --- *)

let request_input = [ ("request", Value.obj ~cls:"Request" (Value.Str "ping")) ]

let run_timeout responder_delay =
  run_script
    ~register:(Impls.register_timeout_demo ?work:None ~responder_delay)
    ~script:Paper_scripts.timeout_demo ~root:Paper_scripts.timeout_demo_root
    ~inputs:request_input ()

let test_timer_normal_path () =
  let _, _, status = run_timeout (Sim.ms 5) in
  ignore (expect_done ~output:"finished" status)

let test_timer_expires () =
  let _, _, status = run_timeout (Sim.ms 500) in
  ignore (expect_done ~output:"expired" status)

(* --- the live mirror is what recovery would rebuild --- *)

(* Run one instance to conclusion, comparing after every simulator event
   the engine's mirror with the one recovery rebuilds from the store. *)
let mirror_run ?nodes ?(check = fun _ _ -> ()) ~register ~script ~root ~inputs ~output () =
  let tb = Testbed.make ?nodes () in
  register tb.Testbed.registry;
  match Engine.launch tb.Testbed.engine ~script ~root ~inputs with
  | Error e -> Alcotest.failf "launch failed: %s" e
  | Ok iid -> (
    Harness.check_mirror_through_run ~until:(Sim.sec 120) tb.Testbed.engine
      (Testbed.participant tb "n0") tb.Testbed.sim iid;
    match Engine.status tb.Testbed.engine iid with
    | Some status ->
      ignore (expect_done ~output status);
      check tb iid
    | None -> Alcotest.fail "instance vanished")

(* [work] aborts and is compensated early; [hold] keeps the instance
   running for 200 ms after that, so the compensation record is live
   between instants instead of trimmed at conclusion *)
let compensated_then_hold =
  {|
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
taskclass Risky {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data }; abort outcome failed { } }
};
taskclass Flow {
    inputs { input main { data of class Data } };
    outputs { outcome finished { data of class Data } }
};
compoundtask flow of taskclass Flow {
    task work of taskclass Risky {
        implementation { "code" is "r.abort", "location" is "h1" };
        recovery { compensate undo };
        inputs { input main { inputobject data from { data of task flow if input main } } }
    };
    task undo of taskclass Step {
        implementation { "code" is "r.undo", "location" is "h1" };
        inputs { input main { inputobject data from { data of task work if output done } } }
    };
    task hold of taskclass Step {
        implementation { "code" is "r.hang", "location" is "h1" };
        inputs { input main { inputobject data from { data of task flow if input main } } }
    };
    outputs { outcome finished { outputobject data from { data of task hold if output done } } }
}
|}

let test_mirror_recovery_scripts () =
  List.iter
    (fun ((script, root), output) ->
      mirror_run ~nodes:[ "n0"; "h1" ]
        ~register:(fun reg -> Workloads.register_recovery reg)
        ~script ~root ~inputs:Workloads.seed_inputs ~output ())
    [
      (Workloads.recovery_retry ~host:"h1", "finished");
      (Workloads.recovery_timeout ~host:"h1", "finished");
      (Workloads.recovery_alternative ~host:"h1", "finished");
      (Workloads.recovery_compensate ~host:"h1", "cancelled");
      ((compensated_then_hold, "flow"), "finished");
    ]

let test_mirror_repeats_and_marks () =
  let scenario = { Impls.trip_smooth with Impls.hotel_fails_rounds = 2; hotel_inner_retries = 2 } in
  mirror_run
    ~register:(Impls.register_business_trip ?work:None ~scenario)
    ~script:Paper_scripts.business_trip ~root:Paper_scripts.business_trip_root ~inputs:user_input
    ~output:"done" ()

(* [emit] releases both marks at one virtual instant, so the second
   report is decided before the first mark's row commits; [use1] and
   [use2] consume one mark each, and the flow finishes only once both
   have run *)
let two_marks =
  {|
class Data;
taskclass Emitter {
    inputs { input main { data of class Data } };
    outputs {
        mark m1 { data of class Data };
        mark m2 { data of class Data };
        outcome done { data of class Data }
    }
};
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
taskclass Flow {
    inputs { input main { data of class Data } };
    outputs { outcome finished { data of class Data } }
};
compoundtask flow of taskclass Flow {
    task emit of taskclass Emitter {
        implementation { "code" is "x.emit" };
        inputs { input main { inputobject data from { data of task flow if input main } } }
    };
    task use1 of taskclass Step {
        implementation { "code" is "x.use" };
        inputs { input main { inputobject data from { data of task emit if output m1 } } }
    };
    task use2 of taskclass Step {
        implementation { "code" is "x.use" };
        inputs { input main { inputobject data from { data of task emit if output m2 } } }
    };
    outputs { outcome finished {
        notification from { task use1 if output done };
        outputobject data from { data of task use2 if output done }
    } }
}
|}

(* the compound [pair] releases m1 and m2 in one evaluation pass, as
   soon as [work] is done *)
let compound_two_marks =
  {|
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
taskclass Pair {
    inputs { input main { data of class Data } };
    outputs {
        mark m1 { data of class Data };
        mark m2 { data of class Data };
        outcome done { data of class Data }
    }
};
taskclass Flow {
    inputs { input main { data of class Data } };
    outputs { outcome finished { data of class Data } }
};
compoundtask flow of taskclass Flow {
    compoundtask pair of taskclass Pair {
        inputs { input main { inputobject data from { data of task flow if input main } } };
        task work of taskclass Step {
            implementation { "code" is "x.use" };
            inputs { input main { inputobject data from { data of task pair if input main } } }
        };
        task last of taskclass Step {
            implementation { "code" is "x.slow" };
            inputs { input main { inputobject data from { data of task work if output done } } }
        };
        outputs {
            mark m1 { outputobject data from { data of task work if output done } };
            mark m2 { outputobject data from { data of task work if output done } };
            outcome done { outputobject data from { data of task last if output done } }
        }
    };
    task use1 of taskclass Step {
        implementation { "code" is "x.use" };
        inputs { input main { inputobject data from { data of task pair if output m1 } } }
    };
    task use2 of taskclass Step {
        implementation { "code" is "x.use" };
        inputs { input main { inputobject data from { data of task pair if output m2 } } }
    };
    outputs { outcome finished {
        notification from { task use1 if output done; task pair if output done };
        outputobject data from { data of task use2 if output done }
    } }
}
|}

let register_marks reg =
  let data = [ ("data", Value.Str "x") ] in
  let mark output = Registry.Emit_mark { Registry.output; objects = data } in
  let work ms steps =
    {
      Registry.steps = Registry.Work (Sim.ms ms) :: steps;
      finish = { Registry.output = "done"; objects = data };
    }
  in
  Registry.bind reg ~code:"x.emit" (fun _ ->
      work 1 [ mark "m1"; mark "m2"; Registry.Work (Sim.ms 5) ]);
  Registry.bind reg ~code:"x.use" (fun _ -> work 1 []);
  Registry.bind reg ~code:"x.slow" (fun _ -> work 20 [])

let test_mirror_marks_released_together () =
  mirror_run ~register:register_marks ~script:two_marks ~root:"flow" ~inputs:Workloads.seed_inputs
    ~output:"finished" ()

let test_mirror_compound_marks_together () =
  mirror_run ~register:register_marks ~script:compound_two_marks ~root:"flow"
    ~inputs:Workloads.seed_inputs ~output:"finished"
    ~check:(fun tb iid ->
      (* each mark is released once: a lost m1 would fire again later *)
      Alcotest.(check int)
        (iid ^ ": marks released by flow/pair")
        2
        (count_events tb (function
          | Event.Task_marked { path = "flow/pair"; _ } -> true
          | _ -> false)))
    ()

(* A compound repeat's rows delete its scope's rows, those decided in
   the same virtual instant too: the mirror applies a write set's rows
   when they are decided, so a timer armed under the scope whose row is
   still in flight when the repeat's rows are built must not outlive
   the round once both commit. *)
let test_repeat_deletes_staged_rows () =
  let schema =
    match Frontend.compile Paper_scripts.quickstart ~root:Paper_scripts.quickstart_root with
    | Ok schema -> schema
    | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_to_string e)
  in
  let inst =
    Instate.create ~iid:"i" ~script_text:"" ~schema ~status:Wstate.Wf_running ~external_inputs:[]
  in
  let armed = Wstate.Timer_armed ("loop/waiter", "timeout") in
  let backoff = Wstate.Backoff "loop/waiter" in
  let outside = Wstate.Backoff "other" in
  List.iter (Instate.apply inst)
    [ Wstate.Put (backoff, (2, 100)); Wstate.Put (armed, 500); Wstate.Put (outside, (2, 100)) ];
  let repeat =
    Instate.action_rows inst ~now:0 ~deadline_of:(fun _ -> 0)
      (Sched.Do_repeat { a_path = [ "loop" ]; a_name = "retry"; a_objects = []; a_attempt = 2 })
  in
  let deletes = List.filter (function Wstate.Delete _ -> true | Wstate.Put _ -> false) repeat in
  Alcotest.(check bool)
    "the in-flight armed deadline and the mirrored backoff are deleted, nothing outside" true
    (List.sort compare deletes
    = List.sort compare
        [ Wstate.Delete (Wstate.Chosen "loop"); Wstate.Delete backoff; Wstate.Delete armed ]);
  List.iter (Instate.apply inst) repeat;
  Alcotest.(check int) "no armed deadline left" 0 (Hashtbl.length inst.Instate.timer_arms);
  Alcotest.(check (list string))
    "only the backoff outside the scope left" [ "other" ]
    (List.of_seq (Hashtbl.to_seq_keys inst.Instate.backoffs));
  Alcotest.(check bool)
    "the repeat's own rows are in the mirror" true
    (Instate.get_state inst [ "loop" ] = Some (Wstate.Waiting { attempt = 2 })
    && Instate.get_chosen inst [ "loop" ] = None)

let test_mirror_timers () =
  List.iter
    (fun (responder_delay, output) ->
      mirror_run
        ~register:(Impls.register_timeout_demo ?work:None ~responder_delay)
        ~script:Paper_scripts.timeout_demo ~root:Paper_scripts.timeout_demo_root
        ~inputs:request_input ~output ())
    [ (Sim.ms 5, "finished"); (Sim.ms 500, "expired") ]

(* Recovery takes the next history index from the history keys: a
   [read] that fails on any history row still rebuilds the same [hseq]. *)
let test_recovery_reads_no_history () =
  let tb, iid, status = run_timeout (Sim.ms 5) in
  ignore (expect_done ~output:"finished" status);
  let participant = Testbed.participant tb "n0" in
  let history = Wstate.history_prefix iid in
  let read key =
    if String.starts_with ~prefix:history key then Alcotest.failf "recovery read %s" key
    else Participant.committed_value participant ~key
  in
  let live = Option.get (Engine.mirror tb.Testbed.engine iid) in
  let rebuilt =
    Instate.create ~iid ~script_text:live.Instate.script_text ~schema:live.Instate.schema
      ~status:Wstate.Wf_running ~external_inputs:[]
  in
  Instate.load_committed rebuilt ~read
    ~keys:
      (Kvstore.keys_with_prefix (Participant.store participant) ~prefix:(Wstate.task_prefix iid));
  check "history rows written" true (live.Instate.hseq > 0);
  check_int "hseq from the keys" live.Instate.hseq rebuilt.Instate.hseq;
  check "status from the meta row" true (rebuilt.Instate.status = status)

(* --- fault tolerance --- *)

let fast_engine =
  { Engine.default_config with Engine.default_deadline = Sim.ms 80; system_max_attempts = 20 }

let test_remote_host_crash_redispatch () =
  (* dispatch runs on a second node that crashes mid-execution; the
     watchdog re-dispatches after recovery *)
  let tb = Testbed.make ~engine_config:fast_engine ~nodes:[ "n0"; "n1" ] () in
  Impls.register_process_order ~work:(Sim.ms 30) ~scenario:Impls.order_ok tb.Testbed.registry;
  let remote_script =
    (* place dispatch on n1 *)
    let marker = {|implementation { "code" is "refDispatch" }|} in
    let replacement = {|implementation { "code" is "refDispatch", "location" is "n1" }|} in
    let src = Paper_scripts.process_order in
    let rec replace s =
      let ml = String.length marker in
      let rec find i = if i + ml > String.length s then None else if String.sub s i ml = marker then Some i else find (i + 1) in
      match find 0 with
      | None -> s
      | Some i -> replace (String.sub s 0 i ^ replacement ^ String.sub s (i + ml) (String.length s - i - ml))
    in
    replace src
  in
  (* crash n1 while dispatch is executing, recover later *)
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 15) (fun () -> Testbed.crash tb "n1"));
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 120) (fun () -> Testbed.recover tb "n1"));
  match
    Testbed.launch_and_run tb ~script:remote_script ~root:Paper_scripts.process_order_root
      ~inputs:order_input
  with
  | Ok (_, status) ->
    ignore (expect_done ~output:"orderCompleted" status);
    check "watchdog retried" true (Engine.system_retries_total tb.Testbed.engine >= 1)
  | Error e -> Alcotest.failf "launch: %s" e

let test_engine_crash_recovery_completes () =
  let tb = Testbed.make ~engine_config:fast_engine () in
  Impls.register_process_order ~work:(Sim.ms 20) ~scenario:Impls.order_ok tb.Testbed.registry;
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 10) (fun () -> Testbed.crash tb "n0"));
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 200) (fun () -> Testbed.recover tb "n0"));
  match
    Testbed.launch_and_run tb ~script:Paper_scripts.process_order
      ~root:Paper_scripts.process_order_root ~inputs:order_input
  with
  | Ok (iid, status) ->
    ignore (expect_done ~output:"orderCompleted" status);
    check "engine recovered" true (Engine.recoveries_total tb.Testbed.engine >= 1);
    check "instance survived the crash durably" true
      (Engine.status tb.Testbed.engine iid = Some status)
  | Error e -> Alcotest.failf "launch: %s" e

(* Declared retry budgets are durable: crash the engine while a policy
   backoff is pending and verify the remaining wait and the remaining
   budget are recovered — the attempt counter never restarts. *)
let backoff_script =
  {|
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
taskclass Flow {
    inputs { input main { data of class Data } };
    outputs { outcome finished { data of class Data } }
};
compoundtask flow of taskclass Flow {
    task work of taskclass Step {
        implementation { "code" is "t.flaky" };
        recovery { retry 5 backoff 60 max 60 };
        inputs { input main { inputobject data from { data of task flow if input main } } }
    };
    outputs { outcome finished { outputobject data from { data of task work if output done } } }
}
|}

let test_policy_backoff_survives_crash () =
  let tb = Testbed.make ~engine_config:fast_engine () in
  let observed = ref [] in
  let flaky (ctx : Registry.context) =
    observed := (Sim.now tb.Testbed.sim, ctx.Registry.attempt) :: !observed;
    if ctx.Registry.attempt < 3 then failwith "flaky"
    else Registry.finish ~work:(Sim.ms 5) "done" [ ("data", Value.Str "ok") ]
  in
  Registry.bind tb.Testbed.registry ~code:"t.flaky" flaky;
  (* attempt 1 fails by ~15ms, then a 60ms backoff is pending; the crash
     at 40ms lands inside that wait *)
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 40) (fun () -> Testbed.crash tb "n0"));
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 150) (fun () -> Testbed.recover tb "n0"));
  match
    Testbed.launch_and_run tb ~script:backoff_script ~root:"flow" ~inputs:Workloads.seed_inputs
  with
  | Error e -> Alcotest.failf "launch: %s" e
  | Ok (iid, status) ->
    ignore (expect_done ~output:"finished" status);
    check "engine recovered" true (Engine.recoveries_total tb.Testbed.engine >= 1);
    check "policy retries counted" true (Engine.policy_retries_total tb.Testbed.engine >= 2);
    let attempts = List.rev_map snd !observed in
    (* strictly increasing: the persisted counter carried over the crash,
       it was never reset to 1 *)
    let rec increasing = function
      | a :: (b :: _ as rest) -> a < b && increasing rest
      | _ -> true
    in
    check "attempts strictly increasing across the crash" true (increasing attempts);
    check "succeeded on a later attempt" true (List.exists (fun a -> a >= 3) attempts);
    (* budget ceiling: 1 primary + 5 declared retries *)
    check "never exceeded the declared budget" true (List.for_all (fun a -> a <= 6) attempts);
    (* the pre-crash failure scheduled the backoff before the crash; the
       next attempt only ran after recovery, i.e. the wait was resumed,
       not discarded *)
    let retries =
      List.filter_map
        (fun (at, kind, _) -> if kind = "policy-retry" then Some at else None)
        (Engine.history tb.Testbed.engine iid)
    in
    check "first policy retry recorded before the crash" true
      (match retries with at :: _ -> at < Sim.ms 40 | [] -> false);
    (match List.rev !observed with
    | (_, 1) :: (at2, 2) :: _ -> check "attempt 2 waited out the recovery" true (at2 >= Sim.ms 150)
    | _ -> Alcotest.fail "expected attempt 1 then attempt 2")

(* The engine crashes during a policy backoff and recovers after the
   backoff was due. The resumed attempt keeps the watchdog of its
   persisted deadline (backoff due + 80 ms), not a fresh 80 ms from the
   late re-dispatch. *)
let test_recovered_watchdog_keeps_deadline () =
  let tb = Testbed.make ~engine_config:fast_engine () in
  Registry.bind tb.Testbed.registry ~code:"t.flaky" (fun ctx ->
      match ctx.Registry.attempt with
      | 1 -> failwith "flaky"
      | 2 -> Registry.finish ~work:(Sim.sec 1) "done" [ ("data", Value.Str "late") ]
      | _ -> Registry.finish ~work:(Sim.ms 5) "done" [ ("data", Value.Str "ok") ]);
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 40) (fun () -> Testbed.crash tb "n0"));
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 100) (fun () -> Testbed.recover tb "n0"));
  match
    Testbed.launch_and_run tb ~script:backoff_script ~root:"flow" ~inputs:Workloads.seed_inputs
  with
  | Error e -> Alcotest.failf "launch: %s" e
  | Ok (_, status) ->
    ignore (expect_done ~output:"finished" status);
    let fired = first_at tb "a watchdog" (function Event.Watchdog_fired _ -> true | _ -> false) in
    (* attempt 1 fails at about 1 ms, so the backoff is due at about
       61 ms and the deadline is about 141 ms; a watchdog armed by the
       100 ms re-dispatch would fire at 181 ms *)
    check "fired at the persisted deadline" true (fired < Sim.ms 150)

(* --- declared timeout actions: the watchdog branches --- *)

(* [work] runs [t.hang], which computes far past the declared timeout,
   so only the watchdog can move it on; [t.alt] answers at once. *)
let watchdog_script ~recovery =
  Printf.sprintf
    {|
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
taskclass Flow {
    inputs { input main { data of class Data } };
    outputs { outcome finished { data of class Data } }
};
compoundtask flow of taskclass Flow {
    task work of taskclass Step {
        implementation { "code" is "t.hang" };
        recovery { %s };
        inputs { input main { inputobject data from { data of task flow if input main } } }
    };
    outputs { outcome finished { outputobject data from { data of task work if output done } } }
}
|}
    recovery

let run_watchdog ~recovery =
  let tb = Testbed.make ~engine_config:fast_engine () in
  let answer work _ctx = Registry.finish ~work "done" [ ("data", Value.Str "ok") ] in
  Registry.bind tb.Testbed.registry ~code:"t.hang" (answer (Sim.ms 200));
  Registry.bind tb.Testbed.registry ~code:"t.alt" (answer (Sim.ms 5));
  match
    Testbed.launch_and_run tb ~script:(watchdog_script ~recovery) ~root:"flow"
      ~inputs:Workloads.seed_inputs
  with
  | Error e -> Alcotest.failf "launch: %s" e
  | Ok (iid, status) ->
    let rows =
      List.map (fun (_, kind, detail) -> (kind, detail)) (Engine.history tb.Testbed.engine iid)
    in
    (tb, iid, status, rows)

let check_rows what expected rows =
  Alcotest.(check (list (pair string string))) what expected rows

let watchdogs_fired tb =
  count_events tb (function Event.Watchdog_fired _ -> true | _ -> false)

let test_timeout_then_alternative () =
  let tb, _, status, rows =
    run_watchdog ~recovery:{|retry 1; timeout 50 then alternative; alternative "t.alt"|}
  in
  ignore (expect_done ~output:"finished" status);
  check_int "one watchdog fired" 1 (watchdogs_fired tb);
  (* a jump to the alternative's band start: no policy-retry row *)
  check_rows "history"
    [
      ("launch", "root=flow");
      ("start", "flow (attempt 1)");
      ("start", "flow/work (attempt 1)");
      ("policy-substitute", "flow/work -> t.alt (timeout)");
      ("complete", "flow -> finished");
      ("complete", "flow/work -> done");
      ("instance", "done(finished)");
    ]
    rows

let test_timeout_then_abort () =
  let tb, iid, _, rows = run_watchdog ~recovery:"timeout 50 then abort" in
  check_int "one watchdog fired" 1 (watchdogs_fired tb);
  (* Step declares no abort outcome, so the task fails outright *)
  check "work failed with the timeout reason" true
    (Harness.task_state tb.Testbed.engine iid [ "flow"; "work" ]
    = Some (Wstate.Failed "recovery timeout"));
  check_rows "history"
    [
      ("launch", "root=flow");
      ("start", "flow (attempt 1)");
      ("start", "flow/work (attempt 1)");
      ("task-failed", "flow/work: recovery timeout");
    ]
    rows

let test_timeout_alternatives_exhausted () =
  let tb, iid, _, rows =
    run_watchdog ~recovery:{|retry 0; timeout 50 then alternative; alternative "t.hang"|}
  in
  (* attempt 1 jumps to the alternative's band; attempt 2 times out in
     the last base band, which has no band after it *)
  check_int "each attempt's watchdog fired" 2 (watchdogs_fired tb);
  check "work failed: alternatives exhausted" true
    (Harness.task_state tb.Testbed.engine iid [ "flow"; "work" ]
    = Some (Wstate.Failed "recovery alternatives exhausted"));
  check_rows "history"
    [
      ("launch", "root=flow");
      ("start", "flow (attempt 1)");
      ("start", "flow/work (attempt 1)");
      ("policy-substitute", "flow/work -> t.hang (timeout)");
      ("task-failed", "flow/work: recovery alternatives exhausted");
    ]
    rows

(* --- queued timers end with their work --- *)

let launch_ok tb ~script ~root =
  match Engine.launch tb.Testbed.engine ~script ~root ~inputs:Workloads.seed_inputs with
  | Ok iid -> iid
  | Error m -> Alcotest.failf "launch: %s" m

let launch_chain tb ~n =
  let script, root = Workloads.chain ~n in
  launch_ok tb ~script ~root

(* A retried attempt's watchdog replaces its predecessor's: at every
   point at most one is queued for the path, the new attempt's still
   fires, and none is left once the instance has concluded. [probes]
   are (virtual time, expected queued watchdogs) pairs. *)
let check_watchdog_probes ~recovery ~bind probes =
  let tb = Testbed.make ~engine_config:fast_engine () in
  bind tb;
  let e = tb.Testbed.engine in
  let iid = launch_ok tb ~script:(watchdog_script ~recovery) ~root:"flow" in
  let seen = ref [] in
  List.iter
    (fun (at, _) ->
      ignore
        (Sim.at tb.Testbed.sim ~time:at (fun () ->
             seen := Harness.queued_watchdogs e iid :: !seen)))
    probes;
  Testbed.run tb;
  List.iter2
    (fun (at, expected) got ->
      Alcotest.(check (list (pair string int))) (Printf.sprintf "queued at %dus" at) expected got)
    probes (List.rev !seen);
  Alcotest.(check (list (pair string int)))
    "none after conclusion" [] (Harness.queued_watchdogs e iid);
  tb

let test_timeout_retry_keeps_one_watchdog () =
  let tb =
    check_watchdog_probes
      ~recovery:{|retry 0; timeout 50 then alternative; alternative "t.hang"|}
      ~bind:(fun tb ->
        Registry.bind tb.Testbed.registry ~code:"t.hang" (fun _ ->
            Registry.finish ~work:(Sim.ms 200) "done" [ ("data", Value.Str "ok") ]))
      [ (Sim.ms 25, [ ("flow/work", 1) ]); (Sim.ms 80, [ ("flow/work", 2) ]) ]
  in
  check_int "the new attempt's watchdog fired too" 2 (watchdogs_fired tb)

(* A failed attempt's watchdog would wait out its 500 ms deadline; it is
   cancelled when the retry is recorded, before the 60 ms backoff. *)
let test_failure_retry_cancels_watchdog () =
  let tb =
    check_watchdog_probes ~recovery:"retry 2 backoff 60 max 60; timeout 500 then abort"
      ~bind:(fun tb ->
        Registry.bind tb.Testbed.registry ~code:"t.hang" (fun ctx ->
            if ctx.Registry.attempt = 1 then failwith "flaky"
            else Registry.finish ~work:(Sim.ms 200) "done" [ ("data", Value.Str "ok") ]))
      [ (Sim.ms 30, []); (Sim.ms 150, [ ("flow/work", 2) ]) ]
  in
  check_int "no watchdog fired" 0 (watchdogs_fired tb)

(* A completed task's watchdog goes with its attempt, while the instance
   runs on; a cancelled instance's running task loses its watchdog at
   conclusion. *)
let test_completion_and_cancel_drop_watchdogs () =
  let tb = Testbed.make () in
  Workloads.register ~work:(Sim.ms 50) tb.Testbed.registry;
  let e = tb.Testbed.engine in
  let done_ = launch_chain tb ~n:2 and cancelled = launch_chain tb ~n:2 in
  let queued iid = Harness.queued_watchdogs e iid in
  Testbed.run ~until:(Sim.ms 75) tb;
  Alcotest.(check (list (pair string int)))
    "only the running task's" [ ("chain/s2", 1) ] (queued done_);
  Engine.cancel e cancelled ~reason:"test" (function Ok () -> () | Error m -> Alcotest.fail m);
  Testbed.run ~until:(Sim.ms 80) tb;
  Alcotest.(check (list (pair string int))) "none once cancelled" [] (queued cancelled);
  Testbed.run ~until:(Sim.sec 1) tb;
  ignore (expect_done ~output:"finished" (Option.get (Engine.status e done_)));
  check_int "nothing left queued" 0 (Sim.pending tb.Testbed.sim)

(* K chains conclude and are collected long before the 30 s default
   deadline: the simulator queue is back at its pre-launch length, with
   nothing left pinning a collected instance. *)
let test_collected_instances_leave_no_timers () =
  let tb = Testbed.make () in
  Workloads.register tb.Testbed.registry;
  let e = tb.Testbed.engine in
  let before = Sim.pending tb.Testbed.sim in
  let iids = List.init 20 (fun _ -> launch_chain tb ~n:3) in
  Testbed.run ~until:(Sim.sec 1) tb;
  List.iter
    (fun iid ->
      ignore (expect_done ~output:"finished" (Option.get (Engine.status e iid)));
      Engine.gc e iid (function Ok () -> () | Error m -> Alcotest.failf "gc: %s" m))
    iids;
  Testbed.run ~until:(Sim.sec 2) tb;
  check_int "queue back at its pre-launch length" before (Sim.pending tb.Testbed.sim)

(* A crash cancels the old life's watchdogs at once (the node's
   incarnation made them no-ops already); recovery arms one for the
   running leaf. *)
let test_crash_cancels_watchdogs () =
  let tb = Testbed.make ~nodes:[ "n0"; "n1" ] () in
  Workloads.register ~work:(Sim.sec 5) tb.Testbed.registry;
  let e = tb.Testbed.engine in
  let script, root = Workloads.chain_remote ~n:1 ~host:"n1" in
  let iid = launch_ok tb ~script ~root in
  let queued what expected =
    Alcotest.(check (list (pair string int))) what expected (Harness.queued_watchdogs e iid)
  in
  Testbed.run ~until:(Sim.sec 1) tb;
  queued "the running leaf's watchdog" [ ("chain/s1", 1) ];
  let before = Sim.pending tb.Testbed.sim in
  Testbed.crash tb "n0";
  check_int "the crash cancels it" (before - 1) (Sim.pending tb.Testbed.sim);
  Testbed.recover tb "n0";
  Testbed.run ~until:(Sim.sec 2) tb;
  queued "recovery re-arms it" [ ("chain/s1", 1) ];
  Testbed.run ~until:(Sim.sec 10) tb;
  ignore (expect_done ~output:"finished" (Option.get (Engine.status e iid)));
  queued "none once done" []

let test_lossy_network_still_completes () =
  let config = { Network.default_config with Network.loss = 0.25 } in
  let tb = Testbed.make ~config ~engine_config:fast_engine ~seed:7L ~nodes:[ "n0"; "n1" ] () in
  Impls.register_business_trip ~work:(Sim.ms 3) ~scenario:Impls.trip_smooth tb.Testbed.registry;
  match
    Testbed.launch_and_run tb ~script:Paper_scripts.business_trip
      ~root:Paper_scripts.business_trip_root ~inputs:user_input
  with
  | Ok (_, status) -> ignore (expect_done ~output:"done" status)
  | Error e -> Alcotest.failf "launch: %s" e

let test_abort_auto_retry () =
  (* an atomic task aborting due to a transient condition is restarted
     automatically: "retries" is honoured *)
  let script =
    {|
class A;
taskclass Flaky {
    inputs { input main { a of class A } };
    outputs { outcome ok { }; abort outcome oops { } }
};
taskclass Root {
    inputs { input main { a of class A } };
    outputs { outcome done { }; outcome gaveUp { } }
};
compoundtask root of taskclass Root {
    task flaky of taskclass Flaky {
        implementation { "code" is "flaky", "retries" is "3" };
        inputs { input main { inputobject a from { a of task root if input main } } }
    };
    outputs {
        outcome done { notification from { task flaky if output ok } };
        outcome gaveUp { notification from { task flaky if output oops } }
    }
}
|}
  in
  let tb = Testbed.make () in
  let flaky (ctx : Registry.context) =
    if ctx.Registry.attempt <= 3 then Registry.finish "oops" [] else Registry.finish "ok" []
  in
  Registry.bind tb.Testbed.registry ~code:"flaky" flaky;
  match
    Testbed.launch_and_run tb ~script ~root:"root"
      ~inputs:[ ("a", Value.obj ~cls:"A" Value.Unit) ]
  with
  | Ok (_, status) -> ignore (expect_done ~output:"done" status)
  | Error e -> Alcotest.failf "launch: %s" e

let test_abort_after_mark_is_protocol_violation () =
  let script =
    {|
class A;
taskclass Leaky {
    inputs { input main { a of class A } };
    outputs {
        outcome ok { };
        mark progress { p of class A }
    }
};
taskclass Root {
    inputs { input main { a of class A } };
    outputs { outcome done { } }
};
compoundtask root of taskclass Root {
    task leaky of taskclass Leaky {
        implementation { "code" is "leaky" };
        inputs { input main { inputobject a from { a of task root if input main } } }
    };
    outputs { outcome done { notification from { task leaky if output ok } } }
}
|}
  in
  (* Leaky's class is non-atomic (no abort outcome), but the impl tries
     to finish with an undeclared abort-like output after marking: the
     engine rejects a finish in a mark output and fails the task. *)
  let tb = Testbed.make () in
  let leaky _ctx =
    {
      Registry.steps =
        [ Registry.Work (Sim.ms 1); Registry.Emit_mark { Registry.output = "progress"; objects = [ ("p", Value.Unit) ] } ];
      finish = { Registry.output = "progress"; objects = [] };
    }
  in
  Registry.bind tb.Testbed.registry ~code:"leaky" leaky;
  match
    Testbed.launch_and_run tb ~script ~root:"root" ~inputs:[ ("a", Value.obj ~cls:"A" Value.Unit) ]
  with
  | Ok (iid, status) -> (
    check "instance cannot complete" true (status = Wstate.Wf_running);
    match Harness.task_state tb.Testbed.engine iid [ "root"; "leaky" ] with
    | Some (Wstate.Failed _) -> ()
    | other ->
      Alcotest.failf "expected failed task, got %s"
        (match other with Some s -> Format.asprintf "%a" Wstate.pp_task_state s | None -> "none"))
  | Error e -> Alcotest.failf "launch: %s" e

let test_impl_mark_early_release () =
  (* a downstream task consumes a mark while the producer is still
     executing (early release, Fig 2/3) *)
  let script =
    {|
class A;
taskclass Producer {
    inputs { input main { a of class A } };
    outputs {
        outcome finished { };
        mark partial { p of class A }
    }
};
taskclass Eager {
    inputs { input main { p of class A } };
    outputs { outcome got { } }
};
taskclass Root {
    inputs { input main { a of class A } };
    outputs { outcome done { } }
};
compoundtask root of taskclass Root {
    task producer of taskclass Producer {
        implementation { "code" is "producer" };
        inputs { input main { inputobject a from { a of task root if input main } } }
    };
    task eager of taskclass Eager {
        implementation { "code" is "eager" };
        inputs { input main { inputobject p from { p of task producer if output partial } } }
    };
    outputs { outcome done { notification from { task eager if output got } } }
}
|}
  in
  let tb = Testbed.make () in
  let producer _ctx =
    {
      Registry.steps =
        [
          Registry.Work (Sim.ms 2);
          Registry.Emit_mark { Registry.output = "partial"; objects = [ ("p", Value.Str "early") ] };
          Registry.Work (Sim.ms 200);
        ];
      finish = { Registry.output = "finished"; objects = [] };
    }
  in
  Registry.bind tb.Testbed.registry ~code:"producer" producer;
  Registry.bind tb.Testbed.registry ~code:"eager" (Registry.const "got" []);
  match
    Testbed.launch_and_run tb ~script ~root:"root" ~inputs:[ ("a", Value.obj ~cls:"A" Value.Unit) ]
  with
  | Ok (iid, status) ->
    ignore (expect_done ~output:"done" status);
    check "eager completed off the mark" true (completed_at tb "root/eager" "got" >= 0);
    (* the compound reached its outcome while the producer was still
       executing: the producer is abandoned, exactly the early-release
       point of Fig 2/3 *)
    (match Harness.task_state tb.Testbed.engine iid [ "root"; "producer" ] with
    | Some (Wstate.Running _) -> ()
    | other ->
      Alcotest.failf "expected producer still running, got %s"
        (match other with Some s -> Format.asprintf "%a" Wstate.pp_task_state s | None -> "none"))
  | Error e -> Alcotest.failf "launch: %s" e

(* --- input set priority and alternatives --- *)

let test_first_declared_set_wins () =
  let script =
    {|
class A;
taskclass Dual {
    inputs {
        input first { a of class A };
        input second { a of class A }
    };
    outputs { outcome done { } }
};
taskclass Root { inputs { input main { a of class A } }; outputs { outcome done { } } };
compoundtask root of taskclass Root {
    task dual of taskclass Dual {
        implementation { "code" is "dual" };
        inputs {
            input first { inputobject a from { a of task root if input main } };
            input second { inputobject a from { a of task root if input main } }
        }
    };
    outputs { outcome done { notification from { task dual if output done } } }
}
|}
  in
  let tb = Testbed.make () in
  let seen = ref "" in
  Registry.bind tb.Testbed.registry ~code:"dual" (fun ctx ->
      seen := ctx.Registry.input_set;
      Registry.finish "done" []);
  (match
     Testbed.launch_and_run tb ~script ~root:"root" ~inputs:[ ("a", Value.obj ~cls:"A" Value.Unit) ]
   with
  | Ok (_, status) -> ignore (expect_done ~output:"done" status)
  | Error e -> Alcotest.failf "launch: %s" e);
  check_str "first declared set chosen" "first" !seen

(* --- dynamic reconfiguration (§3) --- *)

let reconfigure_ok tb transform =
  let result = ref None in
  (match Engine.instances tb.Testbed.engine with
  | [ iid ] -> Engine.reconfigure tb.Testbed.engine iid ~transform (fun r -> result := Some r)
  | _ -> Alcotest.fail "expected exactly one instance");
  Testbed.run tb;
  match !result with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "reconfigure failed: %s" e
  | None -> Alcotest.fail "reconfigure never completed"

let test_reconfigure_add_task_mid_run () =
  (* §3's scenario: add t5 depending on t2 and t4 while the workflow runs *)
  let tb = Testbed.make () in
  Impls.register_quickstart ~work:(Sim.ms 50) tb.Testbed.registry;
  Registry.bind tb.Testbed.registry ~code:"quickstart.audit" (Registry.const "audited" []);
  let audit_decl =
    {|
task t5 of taskclass Audit {
    implementation { "code" is "quickstart.audit" };
    inputs { input main {
        notification from { task t2 if output transformed }
    } }
}
|}
  in
  let add_audit_class script =
    (* t5 needs a taskclass: inject it at the top *)
    let cls =
      Parser.script
        "taskclass Audit { inputs { input main { } }; outputs { outcome audited { } } }"
    in
    Ok (cls @ script)
  in
  let iid =
    match
      Engine.launch tb.Testbed.engine ~script:Paper_scripts.quickstart
        ~root:Paper_scripts.quickstart_root ~inputs:(seed_input 3)
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch: %s" e
  in
  (* run a little, reconfigure while t2..t4 still pending *)
  Sim.run ~until:(Sim.ms 20) tb.Testbed.sim;
  reconfigure_ok tb (fun ast ->
      match add_audit_class ast with
      | Ok ast -> Reconfig.add_constituent ~scope:[ "diamond" ] ~decl:audit_decl ast
      | Error e -> Error e);
  Testbed.run tb;
  (match Harness.task_state tb.Testbed.engine iid [ "diamond"; "t5" ] with
  | Some (Wstate.Done { output; _ }) -> check_str "t5 ran" "audited" output
  | other ->
    Alcotest.failf "t5 state: %s"
      (match other with Some s -> Format.asprintf "%a" Wstate.pp_task_state s | None -> "none"));
  check_int "one reconfiguration" 1 (Engine.reconfigs_total tb.Testbed.engine)

let test_reconfigure_rejects_invalid () =
  let tb = Testbed.make () in
  Impls.register_quickstart tb.Testbed.registry;
  let iid =
    match
      Engine.launch tb.Testbed.engine ~script:Paper_scripts.quickstart
        ~root:Paper_scripts.quickstart_root ~inputs:(seed_input 3)
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch: %s" e
  in
  let bad_decl =
    {|
task t6 of taskclass Transform {
    implementation { "code" is "x" };
    inputs { input main { inputobject data from { data of task ghost if output transformed } } }
}
|}
  in
  let result = ref None in
  Engine.reconfigure tb.Testbed.engine iid
    ~transform:(Reconfig.add_constituent ~scope:[ "diamond" ] ~decl:bad_decl)
    (fun r -> result := Some r);
  Testbed.run tb;
  (match !result with
  | Some (Error msg) -> check "mentions unknown task" true (String.length msg > 0)
  | Some (Ok ()) -> Alcotest.fail "invalid reconfiguration accepted"
  | None -> Alcotest.fail "no reconfigure result");
  check_int "no reconfiguration recorded" 0 (Engine.reconfigs_total tb.Testbed.engine)

(* The engine persists a reconfigured script as text, and recovery
   compiles that text again: a literal must come back byte for byte, or
   the recovered instance dispatches a different code than before. *)
let test_reconfigured_literal_survives_recovery () =
  let tb = Testbed.make ~engine_config:fast_engine () in
  Impls.register_quickstart ~work:(Sim.ms 50) tb.Testbed.registry;
  let cafe = "caf\xc3\xa9" in
  let cafe_runs = ref 0 in
  (match Registry.find tb.Testbed.registry ~code:"quickstart.join" with
  | Some (Registry.Fn join) ->
    Registry.bind tb.Testbed.registry ~code:cafe (fun ctx ->
        incr cafe_runs;
        join ctx)
  | Some (Registry.Sub_workflow _) | None -> Alcotest.fail "quickstart.join not bound");
  let iid =
    match
      Engine.launch tb.Testbed.engine ~script:Paper_scripts.quickstart
        ~root:Paper_scripts.quickstart_root ~inputs:(seed_input 3)
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch: %s" e
  in
  let result = ref None in
  Engine.reconfigure tb.Testbed.engine iid
    ~transform:(Reconfig.rebind_implementation ~scope:[ "diamond" ] ~task:"t4" ~code:cafe)
    (fun r -> result := Some r);
  Sim.run ~until:(Sim.ms 30) tb.Testbed.sim;
  (match !result with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "reconfigure failed: %s" e
  | None -> Alcotest.fail "reconfigure not committed before the crash");
  (* t4 has not been dispatched yet: after the crash it runs from the
     recompiled text *)
  check_int "t4 not started before the crash" 0
    (count_events tb (function Event.Task_started { path; _ } -> path = "diamond/t4" | _ -> false));
  Testbed.crash tb "n0";
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 100) (fun () -> Testbed.recover tb "n0"));
  Testbed.run tb;
  check "engine recovered" true (Engine.recoveries_total tb.Testbed.engine >= 1);
  check_int "t4 ran the reconfigured code" 1 !cafe_runs;
  match Engine.status tb.Testbed.engine iid with
  | Some status -> ignore (expect_done ~output:"finished" status)
  | None -> Alcotest.fail "instance lost"

let test_online_upgrade_rebind () =
  (* upgrade an implementation between two runs without touching the
     script: registry-level rebinding (paper §3) *)
  let tb = Testbed.make () in
  Impls.register_quickstart tb.Testbed.registry;
  let run () =
    match
      Testbed.launch_and_run tb ~script:Paper_scripts.quickstart
        ~root:Paper_scripts.quickstart_root ~inputs:(seed_input 5)
    with
    | Ok (_, status) -> obj_str (expect_done ~output:"finished" status) "data"
    | Error e -> Alcotest.failf "launch: %s" e
  in
  let before = run () in
  Registry.bind tb.Testbed.registry ~code:"quickstart.transform"
    (fun (ctx : Registry.context) ->
      let data =
        match List.assoc_opt "data" ctx.Registry.inputs with
        | Some { Value.payload = Value.List items; _ } -> items
        | _ -> []
      in
      let tripled = List.map (function Value.Int n -> Value.Int (3 * n) | v -> v) data in
      Registry.finish "transformed" [ ("data", Value.List tripled) ])
    ;
  let after = run () in
  check_str "before upgrade doubles" "[10; 10]" before;
  check_str "after upgrade triples" "[15; 15]" after

let test_sub_workflow_binding () =
  (* a task whose "code" is bound to a compound schema: the engine opens
     it as a nested scope (implementation-as-script, §4.3) *)
  let tb = Testbed.make () in
  Impls.register_service_impact ~scenario:Impls.Impact_resolved tb.Testbed.registry;
  let outer =
    {|
class AlarmsSource;
class ResolutionReport;
taskclass ServiceImpactApplication {
    inputs { input main { alarmsSource of class AlarmsSource } };
    outputs {
        outcome resolved { resolutionReport of class ResolutionReport };
        outcome notResolved { };
        outcome serviceImpactApplicationFailure { }
    }
};
taskclass Outer {
    inputs { input main { alarmsSource of class AlarmsSource } };
    outputs { outcome done { report of class ResolutionReport } }
};
compoundtask outer of taskclass Outer {
    task impact of taskclass ServiceImpactApplication {
        implementation { "code" is "impactScript" };
        inputs { input main {
            inputobject alarmsSource from { alarmsSource of task outer if input main }
        } }
    };
    outputs {
        outcome done {
            outputobject report from { resolutionReport of task impact if output resolved }
        }
    }
}
|}
  in
  (* bind "impactScript" to the §5.1 compound *)
  let sub =
    match Frontend.compile Paper_scripts.service_impact ~root:Paper_scripts.service_impact_root with
    | Ok s -> s
    | Error e -> Alcotest.failf "compile sub: %s" (Frontend.error_to_string e)
  in
  Registry.bind_script tb.Testbed.registry ~code:"impactScript" sub;
  match Testbed.launch_and_run tb ~script:outer ~root:"outer" ~inputs:alarms_input with
  | Ok (_, status) ->
    let objects = expect_done ~output:"done" status in
    check_str "nested script's report surfaced" "reroute+reschedule" (obj_str objects "report")
  | Error e -> Alcotest.failf "launch: %s" e


let test_gc_finished_instance () =
  let tb = Testbed.make () in
  Impls.register_process_order ~scenario:Impls.order_ok tb.Testbed.registry;
  let iid, status =
    match
      Testbed.launch_and_run tb ~script:Paper_scripts.process_order
        ~root:Paper_scripts.process_order_root ~inputs:order_input
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "launch: %s" e
  in
  ignore (expect_done ~output:"orderCompleted" status);
  let result = ref None in
  Engine.gc tb.Testbed.engine iid (fun r -> result := Some r);
  Testbed.run tb;
  check "gc succeeded" true (!result = Some (Ok ()));
  check "instance forgotten" true (Engine.status tb.Testbed.engine iid = None);
  check "no instances listed" true (Engine.instances tb.Testbed.engine = []);
  (* a crash + recovery must not resurrect it *)
  Testbed.crash tb "n0";
  Testbed.recover tb "n0";
  Testbed.run tb;
  check "stays gone after recovery" true (Engine.status tb.Testbed.engine iid = None)

(* Collecting a burst must not leave the mirror table at the burst's
   bucket count: what stays after 2,000 instances is what stays after
   10, up to a constant. *)
let test_gc_shrinks_tables () =
  let residue burst =
    let tb = Testbed.make ~engine_config:{ Engine.default_config with trace = false } () in
    Workloads.register tb.Testbed.registry;
    let e = tb.Testbed.engine in
    let script, root = Workloads.chain ~n:1 in
    let launch _ =
      match Engine.launch e ~script ~root ~inputs:Workloads.seed_inputs with
      | Ok iid -> iid
      | Error m -> Alcotest.failf "launch: %s" m
    in
    let iids = List.init burst launch in
    Testbed.run tb;
    List.iter
      (fun iid -> Engine.gc e iid (function Ok () -> () | Error m -> Alcotest.failf "gc: %s" m))
      iids;
    Testbed.run tb;
    check "all collected" true (Engine.instances e = []);
    Engine.observe_residency e
  in
  let small = residue 10 in
  let large = residue 2000 in
  check (Printf.sprintf "residue %d words after 2000, %d after 10" large small) true
    (large <= small + 64)

let test_gc_refuses_running () =
  let tb = Testbed.make () in
  Impls.register_process_order ~work:(Sim.ms 50) ~scenario:Impls.order_ok tb.Testbed.registry;
  let iid =
    match
      Engine.launch tb.Testbed.engine ~script:Paper_scripts.process_order
        ~root:Paper_scripts.process_order_root ~inputs:order_input
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch: %s" e
  in
  Sim.run ~until:(Sim.ms 10) tb.Testbed.sim;
  let result = ref None in
  Engine.gc tb.Testbed.engine iid (fun r -> result := Some r);
  Testbed.run tb;
  check "gc refused" true (match !result with Some (Error _) -> true | _ -> false);
  check "instance finished normally afterwards" true
    (match Engine.status tb.Testbed.engine iid with Some (Wstate.Wf_done _) -> true | _ -> false)

(* An instance owns the store keys under [wf:<iid>:]. An id with ':'
   would nest that prefix over another instance's rows ([wf:a:] covers
   every key of [a:t:x]), so such ids are refused; gc of [a] must leave
   its textual neighbour [ab] untouched, durably. *)
let test_gc_spares_iid_neighbour () =
  let tb = Testbed.make () in
  Impls.register_process_order ~scenario:Impls.order_ok tb.Testbed.registry;
  let e = tb.Testbed.engine in
  let launch iid =
    Engine.launch e ~iid ~script:Paper_scripts.process_order
      ~root:Paper_scripts.process_order_root ~inputs:order_input
  in
  check "colon id refused" true (Result.is_error (launch "a:t:x"));
  check "directory id refused" true (Result.is_error (launch "dir"));
  check "refused ids never listed" true (Engine.instances e = []);
  check "a launched" true (launch "a" = Ok "a");
  check "ab launched" true (launch "ab" = Ok "ab");
  Testbed.run tb;
  let ab_rows () =
    List.filter
      (String.starts_with ~prefix:"wf:ab:")
      (Participant.committed_keys (Testbed.participant tb "n0"))
  in
  let before = ab_rows () in
  let result = ref None in
  Engine.gc e "a" (fun r -> result := Some r);
  Testbed.run tb;
  check "gc of a succeeded" true (!result = Some (Ok ()));
  check "ab's rows intact" true (before <> [] && ab_rows () = before);
  Testbed.crash tb "n0";
  Testbed.recover tb "n0";
  Testbed.run tb;
  check "only ab recovers" true (Engine.instances e = [ "ab" ]);
  match Engine.status e "ab" with
  | Some status -> ignore (expect_done ~output:"orderCompleted" status)
  | None -> Alcotest.fail "ab lost after recovery"

(* The paper (§3): administrative applications — here, a reconfiguration
   agent — can themselves be workflows. A workflow task's implementation
   observes another running instance and reconfigures it. *)
let test_admin_workflow_reconfigures_another () =
  let tb = Testbed.make () in
  Impls.register_quickstart ~work:(Sim.ms 60) tb.Testbed.registry;
  Registry.bind tb.Testbed.registry ~code:"quickstart.audit" (Registry.const "audited" []);
  let target =
    match
      Engine.launch tb.Testbed.engine ~script:Paper_scripts.quickstart
        ~root:Paper_scripts.quickstart_root ~inputs:(seed_input 2)
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch target: %s" e
  in
  (* the admin workflow: a single task whose implementation performs the
     reconfiguration of [target] as its side effect *)
  let admin_script =
    {|
class Req;
taskclass Reconfigure {
    inputs { input main { req of class Req } };
    outputs { outcome reconfigured { }; outcome reconfigFailed { } }
};
taskclass Admin {
    inputs { input main { req of class Req } };
    outputs { outcome done { }; outcome failed { } }
};
compoundtask admin of taskclass Admin {
    task agent of taskclass Reconfigure {
        implementation { "code" is "admin.reconfigure" };
        inputs { input main { inputobject req from { req of task admin if input main } } }
    };
    outputs {
        outcome done { notification from { task agent if output reconfigured } };
        outcome failed { notification from { task agent if output reconfigFailed } }
    }
}
|}
  in
  let outcome = ref None in
  Registry.bind tb.Testbed.registry ~code:"admin.reconfigure" (fun _ctx ->
      Engine.reconfigure tb.Testbed.engine target
        ~transform:(fun ast ->
          let cls =
            Parser.script
              "taskclass Audit { inputs { input main { } }; outputs { outcome audited { } } }"
          in
          Reconfig.add_constituent ~scope:[ "diamond" ]
            ~decl:
              "task t5 of taskclass Audit { implementation { \"code\" is \"quickstart.audit\" }; inputs { input main { notification from { task t2 if output transformed } } } }"
            (cls @ ast))
        (fun r -> outcome := Some r);
      (* the task takes long enough for the reconfiguration txn to land *)
      Registry.finish ~work:(Sim.ms 20) "reconfigured" []);
  (match
     Testbed.launch_and_run tb ~script:admin_script ~root:"admin"
       ~inputs:[ ("req", Value.obj ~cls:"Req" (Value.Str "add-t5")) ]
   with
  | Ok (_, status) -> ignore (expect_done ~output:"done" status)
  | Error e -> Alcotest.failf "admin launch: %s" e);
  check "reconfiguration applied by the admin workflow" true (!outcome = Some (Ok ()));
  match Harness.task_state tb.Testbed.engine target [ "diamond"; "t5" ] with
  | Some (Wstate.Done _) -> ()
  | other ->
    Alcotest.failf "t5: %s"
      (match other with Some s -> Format.asprintf "%a" Wstate.pp_task_state s | None -> "none")


let test_crash_during_launch_commit () =
  (* Regression (found by fault_grid): after a crash 2ms after launch,
     recovery must replay the accepted launch from the store. *)
  let tb = Testbed.make ~engine_config:fast_engine () in
  Impls.register_process_order ~scenario:Impls.order_ok tb.Testbed.registry;
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 2) (fun () -> Testbed.crash tb "n0"));
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 40) (fun () -> Testbed.recover tb "n0"));
  match
    Testbed.launch_and_run ~until:(Sim.sec 60) tb ~script:Paper_scripts.process_order
      ~root:Paper_scripts.process_order_root ~inputs:order_input
  with
  | Ok (_, status) -> ignore (expect_done ~output:"orderCompleted" status)
  | Error e -> Alcotest.failf "launch: %s" e

(* [Engine.instances] lists the directory in launch order through a gc,
   a recovery that finds a stored script it can no longer compile, and a
   launch lost to the crash, which recovery repeats and lists last. *)
let test_instance_listing_across_recovery () =
  let tb = Testbed.make () in
  Impls.register_quickstart ~work:(Sim.ms 5) tb.Testbed.registry;
  let e = tb.Testbed.engine in
  let launch iid =
    match
      Engine.launch e ~iid ~script:Paper_scripts.quickstart ~root:Paper_scripts.quickstart_root
        ~inputs:(seed_input 1)
    with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "launch %s: %s" iid m
  in
  List.iter launch [ "a"; "b"; "c" ];
  Testbed.run tb;
  Engine.gc e "b" (fun r -> check "gc of b" true (r = Ok ()));
  Testbed.run tb;
  (* "c"'s reconfigured script, written straight into the store, does
     not compile *)
  (match Wstate.encode "c" (Wstate.Put (Wstate.Reconf, "class ;")) with
  | key, Some value -> Kvstore.put (Participant.store (Testbed.participant tb "n0")) key value
  | _, None -> Alcotest.fail "reconf row has no value");
  (* "e" is durable and running at the crash; "d"'s launch write set is
     still queued when the node goes down *)
  launch "e";
  Testbed.run ~until:(Sim.now tb.Testbed.sim + Sim.ms 1) tb;
  launch "d";
  Testbed.crash tb "n0";
  Alcotest.(check (list string)) "listed while down" [ "a"; "c"; "e"; "d" ] (Engine.instances e);
  Testbed.recover tb "n0";
  Alcotest.(check (list string)) "after recovery" [ "a"; "c"; "e"; "d" ] (Engine.instances e);
  let recovery_events =
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Event.Recovery_error { detail } -> Some ("error " ^ detail)
        | Event.Recovery_replayed { instances } -> Some (Printf.sprintf "replayed %d" instances)
        | Event.Wf_relaunched { iid } -> Some ("relaunched " ^ iid)
        | _ -> None)
      (Engine.trace e)
  in
  Alcotest.(check (list string))
    "recovery events"
    [ "error c: stored script no longer parses"; "replayed 3"; "relaunched d" ]
    recovery_events;
  check "broken instance has no status" true (Engine.status e "c" = None);
  (* its rows are still in the store, so its id is still taken *)
  check "broken instance's id refused" true
    (Result.is_error
       (Engine.launch e ~iid:"c" ~script:Paper_scripts.quickstart
          ~root:Paper_scripts.quickstart_root ~inputs:(seed_input 1)));
  Testbed.run tb;
  List.iter
    (fun iid ->
      match Engine.status e iid with
      | Some status -> ignore (expect_done ~output:"finished" status)
      | None -> Alcotest.failf "%s lost" iid)
    [ "a"; "e"; "d" ];
  Alcotest.(check (list string)) "at the end" [ "a"; "c"; "e"; "d" ] (Engine.instances e)

(* An engine's persists must commit on the local lane, which recovery
   relies on (Dispatch.persist): a manager on another node is refused. *)
let test_dispatch_refuses_remote_manager () =
  let tb = Testbed.make ~nodes:[ "n0"; "n1" ] () in
  Alcotest.check_raises "refused"
    (Invalid_argument "Dispatch.create: the transaction manager lives on another node") (fun () ->
      ignore
        (Dispatch.create ~rpc:tb.Testbed.rpc ~node:(Testbed.node tb "n0")
           ~mgr:(Testbed.manager tb "n1") ~participant:(Testbed.participant tb "n0") ()))

let test_partition_between_engine_and_host () =
  (* dispatch crosses a partition that heals later: RPC retries and the
     watchdog must get the task through *)
  let tb = Testbed.make ~engine_config:fast_engine ~nodes:[ "n0"; "host" ] () in
  Impls.register_quickstart ~work:(Sim.ms 5) tb.Testbed.registry;
  let placed =
    let marker = {|implementation { "code" is "quickstart.join" }|} in
    let replacement = {|implementation { "code" is "quickstart.join", "location" is "host" }|} in
    let src = Paper_scripts.quickstart in
    let ml = String.length marker in
    let rec go s i =
      if i + ml > String.length s then s
      else if String.sub s i ml = marker then
        String.sub s 0 i ^ replacement ^ String.sub s (i + ml) (String.length s - i - ml)
      else go s (i + 1)
    in
    go src 0
  in
  Network.partition_on tb.Testbed.net "n0" "host";
  ignore
    (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 300) (fun () ->
         Network.partition_off tb.Testbed.net "n0" "host"));
  match
    Testbed.launch_and_run ~until:(Sim.sec 60) tb ~script:placed
      ~root:Paper_scripts.quickstart_root ~inputs:(seed_input 4)
  with
  | Ok (_, status) -> ignore (expect_done ~output:"finished" status)
  | Error e -> Alcotest.failf "launch: %s" e

let test_many_concurrent_instances () =
  let tb = Testbed.make () in
  Impls.register_process_order ~scenario:Impls.order_ok tb.Testbed.registry;
  let iids =
    List.init 40 (fun _ ->
        match
          Engine.launch tb.Testbed.engine ~script:Paper_scripts.process_order
            ~root:Paper_scripts.process_order_root ~inputs:order_input
        with
        | Ok iid -> iid
        | Error e -> Alcotest.failf "launch: %s" e)
  in
  Testbed.run tb;
  List.iter
    (fun iid ->
      match Engine.status tb.Testbed.engine iid with
      | Some (Wstate.Wf_done { output = "orderCompleted"; _ }) -> ()
      | other ->
        Alcotest.failf "%s: %s" iid
          (match other with Some s -> Format.asprintf "%a" Wstate.pp_status s | None -> "none"))
    iids;
  check_int "forty instances listed" 40 (List.length (Engine.instances tb.Testbed.engine));
  check_int "4 dispatches each" (40 * 4) (Engine.dispatches_total tb.Testbed.engine)

(* Recovery rebuilds each instance from its own slice of one sorted key
   read and compiles each distinct script once. At scale — two scripts,
   staggered launches, textually neighbouring ids (wf-c1, wf-c10,
   wf-c100) — it must restore exactly the durable state every instance
   had at the crash, then let every instance conclude. *)
let test_recovery_equivalence_at_scale () =
  let tb = Testbed.make ~engine_config:fast_engine () in
  Impls.register_process_order ~work:(Sim.ms 20) ~scenario:Impls.order_ok tb.Testbed.registry;
  Impls.register_quickstart ~work:(Sim.ms 20) tb.Testbed.registry;
  let e = tb.Testbed.engine in
  let replayed = ref [] in
  Event.subscribe (Sim.events tb.Testbed.sim) (fun ~at:_ ~src:_ -> function
    | Event.Recovery_replayed { instances } -> replayed := instances :: !replayed
    | _ -> ());
  let expected =
    List.init 100 (fun i ->
        let iid = Printf.sprintf "wf-c%d" (i + 1) in
        let script, root, inputs, output =
          if i mod 2 = 0 then
            ( Paper_scripts.process_order,
              Paper_scripts.process_order_root,
              order_input,
              "orderCompleted" )
          else (Paper_scripts.quickstart, Paper_scripts.quickstart_root, seed_input i, "finished")
        in
        ignore
          (Sim.schedule tb.Testbed.sim ~delay:(i * Sim.ms 1) (fun () ->
               match Engine.launch e ~iid ~script ~root ~inputs with
               | Ok _ -> ()
               | Error msg -> Alcotest.failf "launch %s: %s" iid msg));
        (iid, output))
  in
  let durable () =
    List.map
      (fun (iid, _) ->
        let budgets =
          Option.fold ~none:[] (Engine.mirror e iid)
            ~some:(Instate.policy_budgets ~now:(Sim.now tb.Testbed.sim))
        in
        (iid, Engine.status e iid, Harness.task_states e iid, budgets))
      expected
  in
  Testbed.run ~until:(Sim.ms 110) tb;
  let at_crash = durable () in
  let listed = List.length (Engine.instances e) in
  check_int "every instance launched before the crash" 100 listed;
  check "crash lands mid-run" true
    (List.exists (fun (_, s, _, _) -> s = Some Wstate.Wf_running) at_crash
    && List.exists (fun (_, s, _, _) -> s <> Some Wstate.Wf_running) at_crash);
  Testbed.crash tb "n0";
  Testbed.recover tb "n0";
  check "recovered state equals the state at the crash" true (durable () = at_crash);
  check "replay counted every instance" true (!replayed = [ listed ]);
  Testbed.run tb;
  List.iter
    (fun (iid, output) ->
      match Engine.status e iid with
      | Some status -> ignore (expect_done ~output status)
      | None -> Alcotest.failf "%s lost by recovery" iid)
    expected


let test_compact_bounds_storage () =
  let tb = Testbed.make () in
  Impls.register_process_order ~scenario:Impls.order_ok tb.Testbed.registry;
  let run_and_gc () =
    match
      Testbed.launch_and_run tb ~script:Paper_scripts.process_order
        ~root:Paper_scripts.process_order_root ~inputs:order_input
    with
    | Ok (iid, Wstate.Wf_done _) ->
      Engine.gc tb.Testbed.engine iid (fun _ -> ());
      Testbed.run tb
    | Ok _ | Error _ -> Alcotest.fail "instance did not complete"
  in
  let wal_after n =
    for _ = 1 to n do
      run_and_gc ()
    done;
    Engine.compact tb.Testbed.engine;
    ()
  in
  wal_after 3;
  let p =
    (* the testbed's participant lives on n0; measure its object store *)
    Kvstore.wal_length (Participant.store (Testbed.participant tb "n0"))
  in
  wal_after 6;
  let p' = Kvstore.wal_length (Participant.store (Testbed.participant tb "n0")) in
  check "storage bounded across gc+compact cycles" true (p' <= p + 2)


let test_user_cancel_instance () =
  let tb = Testbed.make () in
  Impls.register_process_order ~work:(Sim.ms 100) ~scenario:Impls.order_ok tb.Testbed.registry;
  let iid =
    match
      Engine.launch tb.Testbed.engine ~script:Paper_scripts.process_order
        ~root:Paper_scripts.process_order_root ~inputs:order_input
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch: %s" e
  in
  Sim.run ~until:(Sim.ms 20) tb.Testbed.sim;
  let result = ref None in
  Engine.cancel tb.Testbed.engine iid ~reason:"operator request" (fun r -> result := Some r);
  Testbed.run tb;
  check "cancel accepted" true (!result = Some (Ok ()));
  (match Engine.status tb.Testbed.engine iid with
  | Some (Wstate.Wf_failed reason) -> check "reason recorded" true (String.length reason > 0)
  | other ->
    Alcotest.failf "status: %s"
      (match other with Some s -> Format.asprintf "%a" Wstate.pp_status s | None -> "none"));
  (* durable across a crash *)
  Testbed.crash tb "n0";
  Testbed.recover tb "n0";
  Testbed.run tb;
  check "cancellation durable" true
    (match Engine.status tb.Testbed.engine iid with Some (Wstate.Wf_failed _) -> true | _ -> false)

let test_cancel_concludes_like_finalize () =
  (* a cancelled instance takes the conclusion path of a finished one:
     its mirror is released under [retain_concluded = false] and its
     history ends with the [instance] row *)
  let engine_config = { Engine.default_config with Engine.retain_concluded = false } in
  let tb = Testbed.make ~engine_config () in
  Impls.register_process_order ~work:(Sim.ms 100) ~scenario:Impls.order_ok tb.Testbed.registry;
  let iid =
    match
      Engine.launch tb.Testbed.engine ~script:Paper_scripts.process_order
        ~root:Paper_scripts.process_order_root ~inputs:order_input
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch: %s" e
  in
  Sim.run ~until:(Sim.ms 20) tb.Testbed.sim;
  check "mirror resident while running" true (Harness.task_states tb.Testbed.engine iid <> []);
  let result = ref None in
  Engine.cancel tb.Testbed.engine iid ~reason:"operator request" (fun r -> result := Some r);
  Testbed.run tb;
  check "cancel accepted" true (!result = Some (Ok ()));
  check "mirror released" true (Harness.task_states tb.Testbed.engine iid = []);
  match List.rev (Engine.history tb.Testbed.engine iid) with
  | (_, kind, detail) :: _ ->
    check_str "last history row" "instance failed(cancelled: operator request)"
      (kind ^ " " ^ detail)
  | [] -> Alcotest.fail "no history"

(* A cancel that lands after a conclusion is decided and before it
   commits finds the instance finished: the mirror holds the decided
   conclusion, so the instance concludes once. *)
let test_cancel_during_conclusion () =
  let tb = Testbed.make () in
  Workloads.register ~work:(Sim.ms 5) tb.Testbed.registry;
  let engine = tb.Testbed.engine in
  let iid = launch_chain tb ~n:2 in
  let seen = ref [] in
  Engine.on_complete engine iid (fun s -> seen := s :: !seen);
  let root_completed () =
    count_events tb (function Event.Task_completed { path = "chain"; _ } -> true | _ -> false) > 0
  in
  while (not (root_completed ())) && Sim.step tb.Testbed.sim do
    ()
  done;
  let result = ref None in
  Engine.cancel engine iid ~reason:"late" (fun r -> result := Some r);
  Testbed.run tb;
  let status = Format.asprintf "%a" Wstate.pp_status in
  check_str "cancel refused"
    ("instance " ^ iid ^ " already finished")
    (match !result with
    | Some (Error e) -> e
    | Some (Ok ()) -> "accepted"
    | None -> "no answer");
  let conclusions =
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Event.Wf_concluded { status; _ } -> Some ("wf-concluded " ^ status)
        | Event.Wf_cancelled _ -> Some "wf-cancelled"
        | _ -> None)
      (Engine.trace engine)
  in
  Alcotest.(check (list string)) "one conclusion" [ "wf-concluded done(finished)" ] conclusions;
  check_str "status" "done(finished)"
    (match Engine.status engine iid with Some s -> status s | None -> "none");
  check_str "stored meta" "done(finished)"
    (match
       Participant.committed_value (Testbed.participant tb "n0") ~key:(Wstate.key iid Wstate.Meta)
     with
    | Some raw -> status (Wstate.decode_value Wstate.Meta raw).Wstate.m_status
    | None -> "none");
  Alcotest.(check (list string)) "on_complete saw" [ "done(finished)" ] (List.map status !seen);
  check_int "instance history rows" 1
    (List.length
       (List.filter (fun (_, kind, _) -> kind = "instance") (Engine.history engine iid)))

(* A write set refused because a foreign prepared transaction holds one
   of its keys waits instead of being dropped: once the blocker is
   presumed aborted, the engine's rows commit and the instance goes on. *)
let test_foreign_lock_on_engine_key () =
  let tb = Testbed.make ~nodes:[ "n0"; "cc" ] () in
  Workloads.register ~work:(Sim.ms 5) tb.Testbed.registry;
  let sim = tb.Testbed.sim in
  let refused = ref [] in
  Event.subscribe (Sim.events sim) (fun ~at ~src:_ -> function
    | Event.Txn_failed _ -> refused := at :: !refused
    | _ -> ());
  let iid = launch_chain tb ~n:3 in
  (* [cc] prepares a write of s3's state row on the engine's node, then
     crashes, leaving the lock held until its recovered coordinator
     answers the participant's status poll *)
  (Txn.run (Testbed.manager tb "cc") (fun t ->
       Txn.write t ~node:"n0" ~key:(Wstate.key iid (Wstate.Task "chain/s3")) ~value:"blocker";
       Txn.return ()))
    ignore;
  ignore (Sim.at sim ~time:(Sim.ms 2) (fun () -> Testbed.crash tb "cc"));
  ignore (Sim.at sim ~time:(Sim.ms 100) (fun () -> Testbed.recover tb "cc"));
  Testbed.run tb;
  let refusals = List.rev !refused in
  check "an engine write set was refused" true (refusals <> []);
  let status =
    match Engine.status tb.Testbed.engine iid with
    | Some s -> Format.asprintf "%a" Wstate.pp_status s
    | None -> "none"
  in
  check_str
    (Printf.sprintf "status after the drain at %d us (refusals at %s us)" (Sim.now sim)
       (String.concat ", " (List.map string_of_int refusals)))
    "done(finished)" status;
  let s3 = started_at tb "chain/s3" in
  check
    (Printf.sprintf "s3 starts at %d us, after the refused write set waited" s3)
    true
    (s3 >= List.hd refusals + Sim.ms 50);
  check "no lock left on n0" true (Participant.locks_held (Testbed.participant tb "n0") = 0)

let test_user_abort_task_feeds_fan_in () =
  (* forcing dispatch to abort while waiting/running must produce its
     declared abort outcome, driving the orderCancelled fan-in (Fig 3's
     user-forced abort from the wait state) *)
  let tb = Testbed.make () in
  Impls.register_process_order ~work:(Sim.ms 80) ~scenario:Impls.order_ok tb.Testbed.registry;
  let iid =
    match
      Engine.launch tb.Testbed.engine ~script:Paper_scripts.process_order
        ~root:Paper_scripts.process_order_root ~inputs:order_input
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch: %s" e
  in
  (* dispatch is still waiting for paymentAuthorisation/checkStock *)
  Sim.run ~until:(Sim.ms 10) tb.Testbed.sim;
  let result = ref None in
  Engine.abort_task tb.Testbed.engine iid ~path:[ "processOrderApplication"; "dispatch" ]
    (fun r -> result := Some r);
  Testbed.run tb;
  check "abort accepted" true (!result = Some (Ok ()));
  match Engine.status tb.Testbed.engine iid with
  | Some (Wstate.Wf_done { output = "orderCancelled"; _ }) -> ()
  | other ->
    Alcotest.failf "status: %s"
      (match other with Some s -> Format.asprintf "%a" Wstate.pp_status s | None -> "none")

let test_admin_client_over_rpc () =
  let tb = Testbed.make ~nodes:[ "n0"; "console" ] () in
  Admin.serve tb.Testbed.engine;
  Impls.register_process_order ~work:(Sim.ms 100) ~scenario:Impls.order_ok tb.Testbed.registry;
  let iid =
    match
      Engine.launch tb.Testbed.engine ~script:Paper_scripts.process_order
        ~root:Paper_scripts.process_order_root ~inputs:order_input
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch: %s" e
  in
  let client = Admin.Client.create ~rpc:tb.Testbed.rpc ~src:"console" ~engine_node:"n0" in
  Sim.run ~until:(Sim.ms 20) tb.Testbed.sim;
  let listed = ref None and st = ref None and tasks = ref None in
  Admin.Client.list_instances client (fun r -> listed := Some r);
  Admin.Client.status client ~iid (fun r -> st := Some r);
  Admin.Client.task_states client ~iid (fun r -> tasks := Some r);
  Sim.run ~until:(Sim.ms 40) tb.Testbed.sim;
  check "listed over rpc" true (!listed = Some (Ok [ iid ]));
  check "status running over rpc" true (!st = Some (Ok (Some Wstate.Wf_running)));
  (match !tasks with
  | Some (Ok states) -> check "task states over rpc" true (List.length states >= 2)
  | _ -> Alcotest.fail "task states failed");
  let cancelled = ref None in
  Admin.Client.cancel client ~iid ~reason:"console" (fun r -> cancelled := Some r);
  Testbed.run tb;
  check "cancel over rpc accepted" true (!cancelled = Some (Ok ()));
  check "cancelled" true
    (match Engine.status tb.Testbed.engine iid with Some (Wstate.Wf_failed _) -> true | _ -> false)


let test_if_input_sibling_source () =
  (* the paper's "i3 of task t2 if input main": a task consumes the
     object another task RECEIVED, not produced — available as soon as
     the sibling has chosen its input set *)
  let script =
    {|
class A;
taskclass Worker {
    inputs { input main { a of class A } };
    outputs { outcome done { } }
};
taskclass Observer {
    inputs { input main { a of class A } };
    outputs { outcome saw { a of class A } }
};
taskclass Root {
    inputs { input main { a of class A } };
    outputs { outcome done { a of class A } }
};
compoundtask root of taskclass Root {
    task worker of taskclass Worker {
        implementation { "code" is "slow.worker" };
        inputs { input main { inputobject a from { a of task root if input main } } }
    };
    task observer of taskclass Observer {
        implementation { "code" is "observer" };
        inputs { input main { inputobject a from { a of task worker if input main } } }
    };
    outputs { outcome done { outputobject a from { a of task observer if output saw } } }
}
|}
  in
  let tb = Testbed.make () in
  (* the worker runs for a long time; the observer must get the worker's
     input as soon as the worker STARTS, and finish long before it *)
  Registry.bind tb.Testbed.registry ~code:"slow.worker" (Registry.const ~work:(Sim.ms 500) "done" []);
  Registry.bind tb.Testbed.registry ~code:"observer" (fun (ctx : Registry.context) ->
      Registry.finish "saw" [ ("a", (List.assoc "a" ctx.Registry.inputs).Value.payload) ]);
  match
    Testbed.launch_and_run tb ~script ~root:"root"
      ~inputs:[ ("a", Value.obj ~cls:"A" (Value.Str "payload")) ]
  with
  | Ok (_, status) ->
    let objects = expect_done ~output:"done" status in
    check_str "observer forwarded the worker's received input" "payload"
      (obj_str objects "a");
    check "observer finished while the worker still ran" true
      (completed_at tb "root/observer" "saw" < Sim.ms 500)
  | Error e -> Alcotest.failf "launch: %s" e

let test_launch_rejects_invalid_script () =
  let tb = Testbed.make () in
  (match
     Engine.launch tb.Testbed.engine ~script:"task t of taskclass Nope { }" ~root:"t" ~inputs:[]
   with
  | Error msg -> check "validation error surfaced" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "invalid script accepted");
  match
    Engine.launch tb.Testbed.engine ~script:Paper_scripts.quickstart ~root:"ghost" ~inputs:[]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown root accepted"

let test_missing_external_input_stalls () =
  (* launching without the root's input object: nothing can start *)
  let tb = Testbed.make () in
  Impls.register_quickstart tb.Testbed.registry;
  match
    Testbed.launch_and_run tb ~script:Paper_scripts.quickstart
      ~root:Paper_scripts.quickstart_root ~inputs:[]
  with
  | Ok (iid, status) ->
    check "still running" true (status = Wstate.Wf_running);
    check "quiescent" true (Engine.quiescent tb.Testbed.engine iid)
  | Error e -> Alcotest.failf "launch: %s" e


let test_long_haul_soak () =
  (* "executions could span arbitrarily large durations" (paper sec 1):
     a workflow idles on a 2-simulated-hour timer, survives 30 crash
     cycles meanwhile, and storage stays bounded via gc+compact of the
     instances completed along the way *)
  let script =
    {|
class Go;
class Timer;
taskclass LongWait {
    inputs {
        input main { go of class Go };
        input timeout { t of class Timer }
    };
    outputs { outcome released { }; outcome nudged { } }
};
taskclass Root {
    inputs { input main { go of class Go } };
    outputs { outcome done { } }
};
compoundtask root of taskclass Root {
    task waiter of taskclass LongWait {
        implementation { "code" is "soak.waiter", "timeout" is "7200000" };
        inputs {
            input main { };
            input timeout { }
        }
    };
    outputs { outcome done { notification from { task waiter if output released } } }
}
|}
  in
  let engine_config =
    { Engine.default_config with Engine.default_deadline = Sim.sec 2; system_max_attempts = 100 }
  in
  let tb = Testbed.make ~engine_config () in
  Registry.bind tb.Testbed.registry ~code:"soak.waiter" (fun (ctx : Registry.context) ->
      if ctx.Registry.input_set = "timeout" then Registry.finish "released" []
      else Registry.finish "nudged" []);
  Impls.register_process_order ~scenario:Impls.order_ok tb.Testbed.registry;
  (* periodic crashes: every 10 simulated minutes, down 5 s, 30 cycles *)
  Testbed.apply_faults tb
    (Fault.periodic_crashes ~node:"n0" ~period:(Sim.sec 600) ~down_for:(Sim.sec 5) ~count:30);
  let soak_iid =
    match
      Engine.launch tb.Testbed.engine ~script ~root:"root"
        ~inputs:[ ("go", Value.obj ~cls:"Go" Value.Unit) ]
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch: %s" e
  in
  (* churn: short instances run, complete, and are collected throughout *)
  let churn_at minute =
    ignore
      (Sim.at tb.Testbed.sim ~time:(Sim.sec (minute * 60)) (fun () ->
           if Node.up (Testbed.node tb "n0") then begin
             match
               Engine.launch tb.Testbed.engine ~script:Paper_scripts.process_order
                 ~root:Paper_scripts.process_order_root ~inputs:order_input
             with
             | Ok iid ->
               Engine.on_complete tb.Testbed.engine iid (fun _ ->
                   Engine.gc tb.Testbed.engine iid (fun _ ->
                       Engine.compact tb.Testbed.engine))
             | Error _ -> ()
           end))
  in
  List.iter churn_at [ 3; 23; 43; 63; 83; 103 ];
  Sim.run ~until:(Sim.sec 9000) tb.Testbed.sim;
  (match Engine.status tb.Testbed.engine soak_iid with
  | Some (Wstate.Wf_done { output; _ }) -> check_str "released after 2 simulated hours" "done" output
  | other ->
    Alcotest.failf "soak status: %s"
      (match other with Some s -> Format.asprintf "%a" Wstate.pp_status s | None -> "none"));
  check "a dozen recoveries happened" true (Engine.recoveries_total tb.Testbed.engine >= 12);
  let wal = Kvstore.wal_length (Participant.store (Testbed.participant tb "n0")) in
  check "storage bounded after gc+compact churn" true (wal < 400)


let test_history_survives_crash_and_gc () =
  let tb = Testbed.make ~engine_config:fast_engine () in
  Impls.register_process_order ~work:(Sim.ms 20) ~scenario:Impls.order_ok tb.Testbed.registry;
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 30) (fun () -> Testbed.crash tb "n0"));
  ignore (Sim.schedule tb.Testbed.sim ~delay:(Sim.ms 120) (fun () -> Testbed.recover tb "n0"));
  match
    Testbed.launch_and_run tb ~script:Paper_scripts.process_order
      ~root:Paper_scripts.process_order_root ~inputs:order_input
  with
  | Ok (iid, status) ->
    ignore (expect_done ~output:"orderCompleted" status);
    let rows = Engine.history tb.Testbed.engine iid in
    let kinds = List.map (fun (_, kind, _) -> kind) rows in
    check "launch recorded" true (List.mem "launch" kinds);
    check "completions recorded across the crash" true
      (List.length (List.filter (( = ) "complete") kinds) >= 5);
    check "final status recorded" true (List.mem "instance" kinds);
    (* rows are time-ordered *)
    let times = List.map (fun (at, _, _) -> at) rows in
    check "chronological" true (List.sort compare times = times);
    (* gc removes the audit log with the instance *)
    Engine.gc tb.Testbed.engine iid (fun _ -> ());
    Testbed.run tb;
    check "collected with the instance" true (Engine.history tb.Testbed.engine iid = [])
  | Error e -> Alcotest.failf "launch: %s" e

let test_history_over_admin_rpc () =
  let tb = Testbed.make ~nodes:[ "n0"; "console" ] () in
  Admin.serve tb.Testbed.engine;
  Impls.register_process_order ~scenario:Impls.order_ok tb.Testbed.registry;
  match
    Testbed.launch_and_run tb ~script:Paper_scripts.process_order
      ~root:Paper_scripts.process_order_root ~inputs:order_input
  with
  | Ok (iid, _) ->
    let client = Admin.Client.create ~rpc:tb.Testbed.rpc ~src:"console" ~engine_node:"n0" in
    let rows = ref None in
    Admin.Client.history client ~iid (fun r -> rows := Some r);
    Testbed.run tb;
    (match !rows with
    | Some (Ok rows) -> check "audit log fetched remotely" true (List.length rows >= 7)
    | _ -> Alcotest.fail "history over rpc failed")
  | Error e -> Alcotest.failf "launch: %s" e

(* --- observability spine --- *)

let test_trace_toggle_observes_only () =
  (* [trace = false] drops the engine's event log and changes nothing
     else: same counters, same durable history, same seed *)
  let run trace =
    let tb, _, status =
      run_trip
        ~engine_config:{ Engine.default_config with Engine.trace }
        { Impls.trip_smooth with Impls.hotel_fails_rounds = 1 }
    in
    ignore (expect_done ~output:"done" status);
    tb.Testbed.engine
  in
  let on = run true and off = run false in
  check "log kept when on" true (Engine.trace on <> []);
  check "no log when off" true (Engine.trace off = []);
  check "same counters" true
    (Metrics.counters (Engine.metrics on) = Metrics.counters (Engine.metrics off));
  check "same histories" true (Engine.histories on = Engine.histories off)

let test_metrics_mirror_counter_accessors () =
  let tb, _, status =
    run_script ~register:(Impls.register_quickstart ?work:None)
      ~script:Paper_scripts.quickstart ~root:Paper_scripts.quickstart_root
      ~inputs:(seed_input 1) ()
  in
  ignore (expect_done ~output:"finished" status);
  let m = Engine.metrics tb.Testbed.engine in
  check_int "dispatches counter backs the accessor"
    (Engine.dispatches_total tb.Testbed.engine)
    (Metrics.value m "engine.dispatches");
  check_int "completions counter backs the accessor"
    (Engine.completions_total tb.Testbed.engine)
    (Metrics.value m "engine.completions");
  check "every dispatch crossed the event bus" true (Metrics.value m "engine.dispatches" = 4);
  check "rpc attempts counted" true (Metrics.value m "events.rpc-sent" > 0);
  check "2pc resolutions counted" true (Metrics.value m "events.txn-resolved" > 0);
  check "task durations sampled" true
    (List.length (Metrics.samples m "engine.task_duration_us") >= 4)

(* --- commit fast lanes & batched persistence --- *)

let process_order_run ?faults () =
  let tb = Testbed.make ~engine_config:fast_engine () in
  Impls.register_process_order ~work:(Sim.ms 20) ~scenario:Impls.order_ok tb.Testbed.registry;
  Option.iter (Testbed.apply_faults tb) faults;
  match
    Testbed.launch_and_run tb ~script:Paper_scripts.process_order
      ~root:Paper_scripts.process_order_root ~inputs:order_input
  with
  | Ok (iid, status) ->
    ignore (expect_done ~output:"orderCompleted" status);
    (status, Harness.task_outcomes (Harness.task_states tb.Testbed.engine iid))
  | Error e -> Alcotest.failf "launch: %s" e

let test_batched_persistence_crash_equivalence () =
  (* coalescing a poll pass's persists into one transaction must not
     change what survives a crash: the batch commits or aborts as a
     whole, so the crashed run reaches the fault-free run's result *)
  let faults = Fault.crash_restart ~node:"n0" ~at:(Sim.ms 10) ~down_for:(Sim.ms 190) in
  let s_crashed, o_crashed = process_order_run ~faults () in
  let s_clean, o_clean = process_order_run () in
  check "same final status" true (s_crashed = s_clean);
  check "same task outputs after recovery" true (o_crashed = o_clean)

let test_persist_batching_counted () =
  (* two launches arriving in the same poll pass persist in one
     transaction; the coalescing is observable and both instances
     still run to completion *)
  let tb = Testbed.make () in
  Impls.register_quickstart ?work:None tb.Testbed.registry;
  let launch () =
    match
      Engine.launch tb.Testbed.engine ~script:Paper_scripts.quickstart
        ~root:Paper_scripts.quickstart_root ~inputs:(seed_input 3)
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch: %s" e
  in
  let a = launch () in
  let b = launch () in
  Testbed.run tb;
  let done_ iid =
    match Engine.status tb.Testbed.engine iid with
    | Some status -> ignore (expect_done ~output:"finished" status)
    | None -> Alcotest.failf "instance %s vanished" iid
  in
  done_ a;
  done_ b;
  check "same-timestep persists were coalesced" true
    (Metrics.value (Engine.metrics tb.Testbed.engine) "engine.persist_batched" >= 1)

let test_scope_and_task_histograms_split () =
  (* scope completions land in their own histogram, so the task one
     counts exactly one sample per leaf task *)
  let tb, _, status =
    run_script ~register:(Impls.register_quickstart ?work:None)
      ~script:Paper_scripts.quickstart ~root:Paper_scripts.quickstart_root
      ~inputs:(seed_input 2) ()
  in
  ignore (expect_done ~output:"finished" status);
  let m = Engine.metrics tb.Testbed.engine in
  check_int "one sample per leaf task" 4
    (List.length (Metrics.samples m "engine.task_duration_us"));
  check "root scope sampled separately" true
    (List.length (Metrics.samples m "engine.scope_duration_us") >= 1);
  check "single-node runs ride the loopback lane" true (Metrics.value m "rpc.loopback" > 0);
  check "single-participant commits take one-phase" true (Metrics.value m "txn.one_phase" > 0)

(* --- determinism --- *)

let test_same_seed_same_trace () =
  let run () =
    let tb, _, status = run_trip { Impls.trip_smooth with Impls.hotel_fails_rounds = 1 } in
    (status, Engine.trace tb.Testbed.engine)
  in
  let s1, t1 = run () in
  let s2, t2 = run () in
  check "same status" true (s1 = s2);
  check "identical traces" true (t1 = t2)

let () =
  Alcotest.run "engine"
    [
      ( "fig1",
        [
          Alcotest.test_case "quickstart completes" `Quick test_quickstart_completes;
          Alcotest.test_case "fig1 ordering" `Quick test_quickstart_ordering_matches_fig1;
        ] );
      ( "service-impact",
        [
          Alcotest.test_case "resolved" `Quick test_impact_resolved;
          Alcotest.test_case "not resolved" `Quick test_impact_not_resolved;
          Alcotest.test_case "failure fan-in" `Quick test_impact_failure_fan_in;
          Alcotest.test_case "no fault stalls" `Quick test_impact_no_fault_stalls;
        ] );
      ( "process-order",
        [
          Alcotest.test_case "completes" `Quick test_order_completes;
          Alcotest.test_case "concurrent auth+stock" `Quick test_order_concurrent_auth_and_stock;
          Alcotest.test_case "not authorised" `Quick test_order_cancelled_not_authorised;
          Alcotest.test_case "no stock" `Quick test_order_cancelled_no_stock;
          Alcotest.test_case "dispatch aborts" `Quick test_order_cancelled_dispatch_aborts;
          Alcotest.test_case "capture never runs" `Quick test_order_payment_capture_never_runs_when_cancelled;
        ] );
      ( "business-trip",
        [
          Alcotest.test_case "smooth" `Quick test_trip_smooth;
          Alcotest.test_case "mark before completion" `Quick test_trip_mark_before_completion;
          Alcotest.test_case "compensation + retry loop" `Quick test_trip_compensation_and_retry_loop;
          Alcotest.test_case "inner hotel repeats" `Quick test_trip_inner_hotel_repeats;
          Alcotest.test_case "no flight" `Quick test_trip_no_flight_cancelled;
          Alcotest.test_case "data failure" `Quick test_trip_data_failure_cancelled;
          Alcotest.test_case "first available flight" `Quick test_trip_first_available_flight_wins;
        ] );
      ( "timers",
        [
          Alcotest.test_case "normal path" `Quick test_timer_normal_path;
          Alcotest.test_case "timeout path" `Quick test_timer_expires;
        ] );
      ( "fault-tolerance",
        [
          Alcotest.test_case "host crash redispatch" `Quick test_remote_host_crash_redispatch;
          Alcotest.test_case "engine crash recovery" `Quick test_engine_crash_recovery_completes;
          Alcotest.test_case "policy backoff survives crash" `Quick test_policy_backoff_survives_crash;
          Alcotest.test_case "recovered watchdog keeps its deadline" `Quick
            test_recovered_watchdog_keeps_deadline;
          Alcotest.test_case "lossy network" `Quick test_lossy_network_still_completes;
          Alcotest.test_case "abort auto-retry" `Quick test_abort_auto_retry;
          Alcotest.test_case "crash during launch commit" `Quick test_crash_during_launch_commit;
          Alcotest.test_case "instance listing across recovery" `Quick
            test_instance_listing_across_recovery;
          Alcotest.test_case "partition engine/host" `Quick test_partition_between_engine_and_host;
          Alcotest.test_case "forty concurrent instances" `Quick test_many_concurrent_instances;
          Alcotest.test_case "recovery equivalence at scale" `Quick
            test_recovery_equivalence_at_scale;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "timeout then alternative" `Quick test_timeout_then_alternative;
          Alcotest.test_case "timeout then abort" `Quick test_timeout_then_abort;
          Alcotest.test_case "timeout alternatives exhausted" `Quick
            test_timeout_alternatives_exhausted;
        ] );
      ( "queued-timers",
        [
          Alcotest.test_case "timeout retry keeps one watchdog" `Quick
            test_timeout_retry_keeps_one_watchdog;
          Alcotest.test_case "failure retry cancels the watchdog" `Quick
            test_failure_retry_cancels_watchdog;
          Alcotest.test_case "completion and cancel drop watchdogs" `Quick
            test_completion_and_cancel_drop_watchdogs;
          Alcotest.test_case "collected instances leave no timers" `Quick
            test_collected_instances_leave_no_timers;
          Alcotest.test_case "crash cancels watchdogs" `Quick test_crash_cancels_watchdogs;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "if-input sibling source" `Quick test_if_input_sibling_source;
          Alcotest.test_case "launch rejects invalid" `Quick test_launch_rejects_invalid_script;
          Alcotest.test_case "missing external input stalls" `Quick
            test_missing_external_input_stalls;
        ] );
      ( "transitions",
        [
          Alcotest.test_case "abort after mark" `Quick test_abort_after_mark_is_protocol_violation;
          Alcotest.test_case "mark early release" `Quick test_impl_mark_early_release;
          Alcotest.test_case "first declared set wins" `Quick test_first_declared_set_wins;
        ] );
      ( "reconfiguration",
        [
          Alcotest.test_case "add task mid-run" `Quick test_reconfigure_add_task_mid_run;
          Alcotest.test_case "rejects invalid" `Quick test_reconfigure_rejects_invalid;
          Alcotest.test_case "literal survives recovery" `Quick
            test_reconfigured_literal_survives_recovery;
          Alcotest.test_case "online upgrade" `Quick test_online_upgrade_rebind;
          Alcotest.test_case "sub-workflow binding" `Quick test_sub_workflow_binding;
          Alcotest.test_case "admin workflow reconfigures" `Quick
            test_admin_workflow_reconfigures_another;
        ] );
      ( "administration",
        [
          Alcotest.test_case "persistent history" `Quick test_history_survives_crash_and_gc;
          Alcotest.test_case "history over rpc" `Quick test_history_over_admin_rpc;
          Alcotest.test_case "cancel instance" `Quick test_user_cancel_instance;
          Alcotest.test_case "cancel concludes like finalize" `Quick
            test_cancel_concludes_like_finalize;
          Alcotest.test_case "cancel during conclusion" `Quick test_cancel_during_conclusion;
          Alcotest.test_case "user abort drives fan-in" `Quick test_user_abort_task_feeds_fan_in;
          Alcotest.test_case "admin client over rpc" `Quick test_admin_client_over_rpc;
        ] );
      ( "gc",
        [
          Alcotest.test_case "shrinks tables after a burst" `Quick test_gc_shrinks_tables;
          Alcotest.test_case "collect finished" `Quick test_gc_finished_instance;
          Alcotest.test_case "refuse running" `Quick test_gc_refuses_running;
          Alcotest.test_case "spares iid neighbour" `Quick test_gc_spares_iid_neighbour;
          Alcotest.test_case "compaction bounds storage" `Quick test_compact_bounds_storage;
          Alcotest.test_case "long-haul soak (2 simulated hours)" `Quick test_long_haul_soak;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace toggle observes only" `Quick test_trace_toggle_observes_only;
          Alcotest.test_case "metrics mirror counters" `Quick
            test_metrics_mirror_counter_accessors;
        ] );
      ( "fast-lanes",
        [
          Alcotest.test_case "batched persistence crash equivalence" `Quick
            test_batched_persistence_crash_equivalence;
          Alcotest.test_case "same-poll persists coalesced" `Quick test_persist_batching_counted;
          Alcotest.test_case "foreign lock on an engine key" `Quick test_foreign_lock_on_engine_key;
          Alcotest.test_case "dispatch refuses a remote manager" `Quick
            test_dispatch_refuses_remote_manager;
          Alcotest.test_case "scope/task histograms split" `Quick
            test_scope_and_task_histograms_split;
        ] );
      ("determinism", [ Alcotest.test_case "same seed same trace" `Quick test_same_seed_same_trace ]);
      ( "mirror",
        [
          Alcotest.test_case "recovery scripts" `Quick test_mirror_recovery_scripts;
          Alcotest.test_case "repeats and marks" `Quick test_mirror_repeats_and_marks;
          Alcotest.test_case "timers" `Quick test_mirror_timers;
          Alcotest.test_case "marks released together" `Quick test_mirror_marks_released_together;
          Alcotest.test_case "compound marks released in one pass" `Quick
            test_mirror_compound_marks_together;
          Alcotest.test_case "repeat deletes staged rows" `Quick test_repeat_deletes_staged_rows;
          Alcotest.test_case "recovery reads no history" `Quick test_recovery_reads_no_history;
        ] );
    ]
