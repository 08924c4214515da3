(* Benchmark harness: regenerates every figure of the paper and runs the
   deterministic regression gates (EXPERIMENTS.md documents the mapping).

   The paper (ICDCS'98) has no quantitative tables — its evaluation is
   the language demonstrated on three applications (Figs 1-9). The
   harness therefore has two parts:

   Part 1 — figure regeneration: one-shot deterministic runs printing
   the rows/series each figure corresponds to (orderings, outcomes,
   compensation counts, mark timing) plus scaling sweeps in virtual
   (simulated) time, including the engine-vs-baseline fault ablation.

   Part 2 — gates: counts that repeat exactly on any machine (RPCs and
   minor-heap words per dispatch, bytes per operation, virtual-time
   throughput ratios, same-seed determinism), each checked against a
   fixed bound and written as one row of BENCH_gates.json. The only
   wall-clock gate is explore scaling, a ratio of two runs on the same
   machine. Wall-clock performance is rdalbench's job.

   Usage: main.exe            figures, then the gates at default sizes
          main.exe --smoke    the gates at CI sizes (no figures)
          main.exe --full     figures, then the gates with capacity up
                              to 100k instances

   Exits 1 if any gate fails. *)

(* --- shared setup helpers --- *)

let order_inputs = [ ("order", Value.obj ~cls:"Order" (Value.Str "order-1")) ]

let user_inputs = [ ("user", Value.obj ~cls:"User" (Value.Str "fred")) ]

let alarm_inputs = [ ("alarmsSource", Value.obj ~cls:"AlarmsSource" (Value.Str "feed")) ]

let seed_inputs = [ ("seed", Value.obj ~cls:"Data" (Value.Int 21)) ]

let must = function
  | Ok v -> v
  | Error e -> failwith e

let run_on_testbed ?engine_config ~register ~script ~root ~inputs () =
  let tb = Testbed.make ?engine_config () in
  register tb.Testbed.registry;
  let _, status = must (Testbed.launch_and_run tb ~script ~root ~inputs) in
  (tb, status)

let status_output = function
  | Wstate.Wf_done { output; _ } -> output
  | Wstate.Wf_running -> "(running)"
  | Wstate.Wf_failed reason -> "failed: " ^ reason

(* Instance completion time in virtual us, read from the engine trace —
   Sim.now after a full drain includes harmless 30s watchdog no-ops. *)
let completion_at tb =
  match
    List.find_opt
      (function _, Event.Wf_concluded _ -> true | _ -> false)
      (Engine.trace tb.Testbed.engine)
  with
  | Some (at, _) -> at
  | None -> -1

let count_events tb p =
  List.length (List.filter (fun (_, ev) -> p ev) (Engine.trace tb.Testbed.engine))

(* ==================================================================== *)
(* Part 1: figure regeneration                                          *)
(* ==================================================================== *)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let fig1 () =
  header "F1 (Fig 1): inter-task dependencies — t2,t3 after t1; t4 after both";
  let tb = Testbed.make () in
  Impls.register_quickstart ?work:None tb.Testbed.registry;
  let _, status =
    must
      (Testbed.launch_and_run tb ~script:Paper_scripts.quickstart
         ~root:Paper_scripts.quickstart_root ~inputs:seed_inputs)
  in
  Printf.printf "outcome: %s\n" (status_output status);
  let trace = Engine.trace tb.Testbed.engine in
  List.iter
    (fun (at, ev) ->
      match ev with
      | Event.Task_started { path; attempt } ->
        Printf.printf "  %8d us  %-8s  %s (attempt %d)\n" at "start" path attempt
      | Event.Task_completed { path; output; _ } ->
        Printf.printf "  %8d us  %-8s  %s -> %s\n" at "complete" path output
      | _ -> ())
    trace;
  print_endline "";
  print_string (Gantt.render trace)

let fig2 () =
  header "F2 (Fig 2): input sets and ordered alternative sources";
  let script, root = Workloads.alternatives ~k:4 ~alive:3 in
  let tb, status =
    run_on_testbed
      ~register:(Workloads.register ?work:None)
      ~script ~root ~inputs:Workloads.seed_inputs ()
  in
  Printf.printf "4 alternative sources, producers 1,2,4 dead, producer 3 alive -> %s\n"
    (status_output status);
  match Engine.instances tb.Testbed.engine with
  | [ iid ] -> (
    match
      Option.bind (Engine.mirror tb.Testbed.engine iid) (fun m ->
          Instate.get_state m [ "alt"; "consumer" ])
    with
    | Some (Wstate.Done _) ->
      print_endline "consumer ran from the only live alternative (3rd in the list)"
    | _ -> print_endline "consumer did not run (unexpected)")
  | _ -> ()

let fig3 () =
  header "F3 (Fig 3): task transitions — repeat outcomes and automatic restarts";
  let tb, status =
    run_on_testbed
      ~register:
        (Impls.register_business_trip ?work:None
           ~scenario:{ Impls.trip_smooth with Impls.hotel_inner_retries = 2 })
      ~script:Paper_scripts.business_trip ~root:Paper_scripts.business_trip_root
      ~inputs:user_inputs ()
  in
  Printf.printf "hotelReservation used its repeat outcome %d time(s); final outcome: %s\n"
    (count_events tb (function Event.Task_repeated _ -> true | _ -> false))
    (status_output status)

let fig4 () =
  header "F4 (Fig 4): architecture — repository + execution service over the ORB";
  let tb = Testbed.make ~nodes:[ "engine"; "repository" ] () in
  Impls.register_process_order ~scenario:Impls.order_ok tb.Testbed.registry;
  let repo = Repository.create ~node:(Testbed.node tb "repository") in
  let client = Repo_client.create ~rpc:tb.Testbed.rpc ~src:"engine" ~repo_node:"repository" in
  ignore (must (Repository.store repo ~name:"order" ~source:Paper_scripts.process_order));
  let result = ref None in
  Repo_client.launch client ~engine:tb.Testbed.engine ~name:"order"
    ~root:Paper_scripts.process_order_root ~inputs:order_inputs (fun r -> result := Some r);
  Testbed.run tb;
  (match !result with
  | Some (Ok iid) ->
    Printf.printf "stored, fetched over RPC, executed: instance %s -> %s\n" iid
      (match Engine.status tb.Testbed.engine iid with Some s -> status_output s | None -> "?")
  | _ -> print_endline "repository launch failed");
  Printf.printf "messages on the simulated ORB: %d sent / %d delivered\n"
    (Network.sent_total tb.Testbed.net)
    (Network.delivered_total tb.Testbed.net)

let fig5 () =
  header "F5 (Fig 5): compound task nesting — virtual-time cost per level";
  Printf.printf "%8s %14s %12s\n" "depth" "makespan(us)" "dispatches";
  List.iter
    (fun depth ->
      let script, root = Workloads.nested ~depth in
      let tb, _ =
        run_on_testbed
          ~register:(Workloads.register ?work:None)
          ~script ~root ~inputs:Workloads.seed_inputs ()
      in
      Printf.printf "%8d %14d %12d\n" depth (completion_at tb)
        (Engine.dispatches_total tb.Testbed.engine))
    [ 1; 2; 4; 8; 16 ]

let fig6 () =
  header "F6 (Sec 5.1): service impact application — every outcome";
  List.iter
    (fun (label, scenario) ->
      let _, status =
        run_on_testbed
          ~register:(Impls.register_service_impact ?work:None ~scenario)
          ~script:Paper_scripts.service_impact ~root:Paper_scripts.service_impact_root
          ~inputs:alarm_inputs ()
      in
      Printf.printf "  %-26s -> %s\n" label (status_output status))
    [
      ("resolved", Impls.Impact_resolved);
      ("no resolution", Impls.Impact_not_resolved);
      ("correlator failure", Impls.Impact_correlator_fails);
    ]

let fig7 () =
  header "F7 (Sec 5.2): process order application — every outcome";
  List.iter
    (fun (label, scenario) ->
      let _, status =
        run_on_testbed
          ~register:(Impls.register_process_order ?work:None ~scenario)
          ~script:Paper_scripts.process_order ~root:Paper_scripts.process_order_root
          ~inputs:order_inputs ()
      in
      Printf.printf "  %-26s -> %s\n" label (status_output status))
    [
      ("happy path", Impls.order_ok);
      ("not authorised", { Impls.order_ok with Impls.authorised = false });
      ("out of stock", { Impls.order_ok with Impls.in_stock = false });
      ("dispatch aborts", { Impls.order_ok with Impls.dispatch_ok = false });
    ]

let fig8_9 () =
  header "F8/F9 (Sec 5.3): business trip — marks, compensation, retry loop";
  List.iter
    (fun (label, scenario) ->
      let tb, status =
        run_on_testbed
          ~register:(Impls.register_business_trip ?work:None ~scenario)
          ~script:Paper_scripts.business_trip ~root:Paper_scripts.business_trip_root
          ~inputs:user_inputs ()
      in
      let marks = count_events tb (function Event.Task_marked _ -> true | _ -> false) in
      let repeats = count_events tb (function Event.Task_repeated _ -> true | _ -> false) in
      Printf.printf "  %-34s -> %-10s (marks: %d, repeats: %d)\n" label (status_output status)
        marks repeats)
    [
      ("smooth", Impls.trip_smooth);
      ("hotel fails once, compensated", { Impls.trip_smooth with Impls.hotel_fails_rounds = 1 });
      ("hotel fails twice", { Impls.trip_smooth with Impls.hotel_fails_rounds = 2 });
      ("no flight", { Impls.trip_smooth with Impls.flights_found = (false, false, false) });
    ]

(* --- scaling sweeps (virtual time) --- *)

let sweep_chain () =
  header "S1: pipeline scaling (chain of n tasks, 1ms work each) — virtual time";
  Printf.printf "%8s %14s %12s\n" "n" "makespan(us)" "dispatches";
  List.iter
    (fun n ->
      let script, root = Workloads.chain ~n in
      let tb, _ =
        run_on_testbed
          ~register:(Workloads.register ?work:None)
          ~script ~root ~inputs:Workloads.seed_inputs ()
      in
      Printf.printf "%8d %14d %12d\n" n (completion_at tb)
        (Engine.dispatches_total tb.Testbed.engine))
    [ 4; 16; 64; 128 ]

let sweep_fanout () =
  header "S2: fan-out scaling (1 source, w parallel workers, 1 join) — virtual time";
  Printf.printf "%8s %14s %12s\n" "width" "makespan(us)" "dispatches";
  List.iter
    (fun width ->
      let script, root = Workloads.fanout ~width in
      let tb, _ =
        run_on_testbed
          ~register:(Workloads.register ?work:None)
          ~script ~root ~inputs:Workloads.seed_inputs ()
      in
      Printf.printf "%8d %14d %12d\n" width (completion_at tb)
        (Engine.dispatches_total tb.Testbed.engine))
    [ 2; 8; 32; 64 ]

let a1_fault_ablation () =
  header "A1: fault-tolerance ablation — engine (persistent) vs baseline (volatile)";
  print_endline
    "workload: chain of 12 tasks, 10ms work each; node crashes periodically (20ms down)";
  Printf.printf "%14s | %12s %11s | %12s %11s %9s\n" "crash period" "engine(us)" "dispatches"
    "baseline(us)" "executions" "restarts";
  let work = Sim.ms 10 in
  let script, root = Workloads.chain ~n:12 in
  let engine_run period =
    let engine_config =
      { Engine.default_config with Engine.default_deadline = Sim.ms 60; system_max_attempts = 100 }
    in
    let tb = Testbed.make ~engine_config () in
    Workloads.register ~work tb.Testbed.registry;
    (match period with
    | None -> ()
    | Some p ->
      Testbed.apply_faults tb
        (Fault.periodic_crashes ~node:"n0" ~period:p ~down_for:(Sim.ms 20) ~count:60));
    let _, status =
      must
        (Testbed.launch_and_run ~until:(Sim.sec 60) tb ~script ~root ~inputs:Workloads.seed_inputs)
    in
    match status with
    | Wstate.Wf_done _ -> Some (completion_at tb, Engine.dispatches_total tb.Testbed.engine)
    | Wstate.Wf_running | Wstate.Wf_failed _ -> None
  in
  let baseline_run period =
    let sim = Sim.create ~seed:42L () in
    let net = Network.create sim in
    let node = Network.add_node net ~id:"n0" in
    let registry = Registry.create () in
    Workloads.register ~work registry;
    let baseline = Baseline.create ~sim ~node ~registry in
    (match period with
    | None -> ()
    | Some p ->
      Fault.apply sim
        (Fault.periodic_crashes ~node:"n0" ~period:p ~down_for:(Sim.ms 20) ~count:60)
        ~on:(function
          | Fault.Crash _ -> Node.crash node
          | Fault.Restart _ -> Node.recover node
          | Fault.Partition_on _ | Fault.Partition_off _ -> ()));
    let finished = ref None in
    Baseline.on_any_complete baseline (fun _ status ->
        if !finished = None then
          match status with Wstate.Wf_done _ -> finished := Some (Sim.now sim) | _ -> ());
    ignore (must (Baseline.launch baseline ~script ~root ~inputs:Workloads.seed_inputs));
    Sim.run ~until:(Sim.sec 60) sim;
    Option.map
      (fun at -> (at, Baseline.tasks_executed_total baseline, Baseline.restarts_total baseline))
      !finished
  in
  List.iter
    (fun (label, period) ->
      let e = engine_run period in
      let b = baseline_run period in
      Printf.printf "%14s | %12s %11s | %12s %11s %9s\n" label
        (match e with Some (t, _) -> string_of_int t | None -> "timeout")
        (match e with Some (_, d) -> string_of_int d | None -> "-")
        (match b with Some (t, _, _) -> string_of_int t | None -> "timeout")
        (match b with Some (_, x, _) -> string_of_int x | None -> "-")
        (match b with Some (_, _, r) -> string_of_int r | None -> "-"))
    [
      ("none", None);
      ("400 ms", Some (Sim.ms 400));
      ("200 ms", Some (Sim.ms 200));
      ("100 ms", Some (Sim.ms 100));
      ("60 ms", Some (Sim.ms 60));
    ]


let a6_loss_sweep () =
  header "A6: message-loss sweep — order processing across 3 nodes (virtual time)";
  Printf.printf "%8s %14s %10s %10s\n" "loss" "makespan(us)" "sent" "dropped";
  List.iter
    (fun loss ->
      let config = { Network.default_config with Network.loss } in
      let tb = Testbed.make ~config ~seed:7L ~nodes:[ "hq"; "bank"; "warehouse" ] () in
      Impls.register_process_order ~scenario:Impls.order_ok tb.Testbed.registry;
      let placed =
        let place code node src =
          let marker = Printf.sprintf "implementation { \"code\" is %S }" code in
          let replacement =
            Printf.sprintf "implementation { \"code\" is %S, \"location\" is %S }" code node
          in
          let ml = String.length marker in
          let rec go s i =
            if i + ml > String.length s then s
            else if String.sub s i ml = marker then
              String.sub s 0 i ^ replacement ^ String.sub s (i + ml) (String.length s - i - ml)
            else go s (i + 1)
          in
          go src 0
        in
        Paper_scripts.process_order
        |> place "refPaymentAuthorisation" "bank"
        |> place "refCheckStock" "warehouse"
        |> place "refDispatch" "warehouse"
        |> place "refPaymentCapture" "bank"
      in
      match
        Testbed.launch_and_run ~until:(Sim.sec 120) tb ~script:placed
          ~root:Paper_scripts.process_order_root ~inputs:order_inputs
      with
      | Ok (_, Wstate.Wf_done _) ->
        Printf.printf "%7.0f%% %14d %10d %10d\n" (loss *. 100.) (completion_at tb)
          (Network.sent_total tb.Testbed.net)
          (Network.dropped_total tb.Testbed.net)
      | Ok _ | Error _ -> Printf.printf "%7.0f%% %14s\n" (loss *. 100.) "timeout")
    [ 0.0; 0.1; 0.2; 0.3; 0.4 ]

let a2_reconfig () =
  header "A2: dynamic reconfiguration — add a task to a running instance (Sec 3's t5)";
  let tb = Testbed.make () in
  Impls.register_quickstart ~work:(Sim.ms 50) tb.Testbed.registry;
  Registry.bind tb.Testbed.registry ~code:"quickstart.audit" (Registry.const "audited" []);
  let iid =
    must
      (Engine.launch tb.Testbed.engine ~script:Paper_scripts.quickstart
         ~root:Paper_scripts.quickstart_root ~inputs:seed_inputs)
  in
  Sim.run ~until:(Sim.ms 20) tb.Testbed.sim;
  let before = Sim.now tb.Testbed.sim in
  let decl =
    "task t5 of taskclass Audit { implementation { \"code\" is \"quickstart.audit\" }; inputs { \
     input main { notification from { task t2 if output transformed } } } }"
  in
  let applied = ref None in
  Engine.reconfigure tb.Testbed.engine iid
    ~transform:(fun ast ->
      let cls =
        Parser.script
          "taskclass Audit { inputs { input main { } }; outputs { outcome audited { } } }"
      in
      Reconfig.add_constituent ~scope:[ "diamond" ] ~decl (cls @ ast))
    (fun r -> applied := Some (r, Sim.now tb.Testbed.sim));
  Testbed.run tb;
  (match !applied with
  | Some (Ok (), at) ->
    Printf.printf "reconfiguration committed after %d us of virtual time (transactional)\n"
      (at - before)
  | Some (Error e, _) -> Printf.printf "failed: %s\n" e
  | None -> print_endline "never completed");
  match
    Option.bind (Engine.mirror tb.Testbed.engine iid) (fun m -> Instate.get_state m [ "diamond"; "t5" ])
  with
  | Some (Wstate.Done _) -> print_endline "t5 (added mid-run) executed and completed"
  | _ -> print_endline "t5 did not run"

let a3_alternatives () =
  header "A3: alternative input sources mask failed producers — virtual time";
  Printf.printf "%16s %14s\n" "k alternatives" "makespan(us)";
  List.iter
    (fun k ->
      let script, root = Workloads.alternatives ~k ~alive:k in
      let tb, _ =
        run_on_testbed
          ~register:(Workloads.register ?work:None)
          ~script ~root ~inputs:Workloads.seed_inputs ()
      in
      Printf.printf "%16d %14d\n" k (completion_at tb))
    [ 1; 2; 4; 8 ]

(* ==================================================================== *)
(* Part 2: deterministic gates                                          *)
(* ==================================================================== *)

type gate = { name : string; value : float; bound : float; ok : bool }

let at_most name value bound = { name; value; bound; ok = value <= bound }

let at_least name value bound = { name; value; bound; ok = value >= bound }

let holds name ok = { name; value = (if ok then 1. else 0.); bound = 1.; ok }

(* --- engine: the 128-task chain --- *)

let engine_gates () =
  header "GATES: engine — 128-task chain";
  (* one chain run, then a read-back audit of the final state: the
     instance's meta row must be in n0's committed store *)
  let chain_run () =
    let script, root = Workloads.chain ~n:128 in
    let tb = Testbed.make () in
    Workloads.register ?work:None tb.Testbed.registry;
    Gc.compact ();
    let w0 = Gc.minor_words () in
    let iid, status = must (Testbed.launch_and_run tb ~script ~root ~inputs:Workloads.seed_inputs) in
    let words = Gc.minor_words () -. w0 in
    (match status with
    | Wstate.Wf_done _ -> ()
    | Wstate.Wf_running | Wstate.Wf_failed _ -> failwith "engine gates: chain did not complete");
    let audited =
      Participant.committed_value (Testbed.participant tb "n0") ~key:(Wstate.key iid Wstate.Meta)
      <> None
    in
    (Engine.metrics tb.Testbed.engine, words, audited)
  in
  (* the warm-up run doubles as the first half of the determinism pair *)
  let m_warm, _, audited_warm = chain_run () in
  let m, words, audited = chain_run () in
  let dispatches = float_of_int (Metrics.value m "engine.dispatches") in
  let rpcs = float_of_int (Metrics.value m "events.rpc-sent") in
  Printf.printf "%.0f dispatches, %.2f rpcs/dispatch, %.1f minor words/dispatch\n" dispatches
    (rpcs /. dispatches) (words /. dispatches);
  [
    (* the commit fast lanes must hold *)
    at_most "engine.rpcs_per_dispatch" (rpcs /. dispatches) 3.5;
    holds "engine.deterministic" (Metrics.counters m_warm = Metrics.counters m);
    holds "engine.readback_audit" (audited_warm && audited);
    (* exact for a given build: every run after the first reads the same
       value (lazy initialisation adds a fraction of a word to a cold
       first run, hence the warm-up). The bound sits about 5% above it;
       the scheduler-scan allocation removed in EXPERIMENTS.md A11 cost
       about 3,800 more words per dispatch, and encoding each local
       one-phase commit to wire bytes and back (A18) about 500, and the
       byte-at-a-time lexer's share of the launch's compile (A19) about
       1,350. *)
    at_most "engine.chain_words_per_dispatch" (words /. dispatches) 5_100.;
  ]

(* --- engine: one instance's history against the store's size --- *)

(* [instances] concluded, uncollected 3-task chains on one engine; the
   minor words of one [Engine.history] call. The call should read only
   its instance's rows, so the words should not grow with the number of
   other instances in the store. Allocation is deterministic, so the
   gate compares two store sizes exactly. *)
let history_words ~instances =
  let tb = Testbed.make ~engine_config:{ Engine.default_config with trace = false } () in
  Workloads.register tb.Testbed.registry;
  let script, root = Workloads.chain ~n:3 in
  let iids =
    List.init instances (fun _ ->
        must (Engine.launch tb.Testbed.engine ~script ~root ~inputs:Workloads.seed_inputs))
  in
  Testbed.run tb;
  List.iter
    (fun iid ->
      match Engine.status tb.Testbed.engine iid with
      | Some (Wstate.Wf_done _) -> ()
      | _ -> failwith ("history gate: " ^ iid ^ " did not complete"))
    iids;
  let iid = List.hd iids in
  ignore (Engine.history tb.Testbed.engine iid);
  let w0 = Gc.minor_words () in
  let rows = Engine.history tb.Testbed.engine iid in
  let words = Gc.minor_words () -. w0 in
  if rows = [] then failwith "history gate: no history rows";
  words

let history_gates () =
  header "GATES: engine — one instance's history, 10 and 1,000 instances in the store";
  let at_10 = history_words ~instances:10 in
  let at_1000 = history_words ~instances:1_000 in
  Printf.printf "%8d instances: %.0f words\n%8d instances: %.0f words\n" 10 at_10 1_000 at_1000;
  [ at_most "engine.history_words_growth" (at_1000 /. at_10) 1.05 ]

(* --- engine: what a collected instance leaves behind --- *)

(* Live words after a full major collection once N, and then 4N,
   three-task chains on one engine have concluded and been collected;
   the row is the slope per instance. With [compact], [Engine.compact]
   runs before each reading; without it, the only log trimming is the
   store's own. Both cycles end in the first four virtual seconds, long
   before a 30 s watchdog deadline, so a timer that outlives its work
   (and so pins the instance it captured) shows here. The slope is a
   difference of two readings in one process, so it repeats exactly. *)
let retained_words_per_instance ~compact =
  let tb = Testbed.make ~engine_config:{ Engine.default_config with trace = false } () in
  Workloads.register tb.Testbed.registry;
  let e = tb.Testbed.engine in
  let script, root = Workloads.chain ~n:3 in
  let settle () = Testbed.run ~until:(Sim.now tb.Testbed.sim + Sim.sec 1) tb in
  let live_after count =
    let iids =
      List.init count (fun _ -> must (Engine.launch e ~script ~root ~inputs:Workloads.seed_inputs))
    in
    settle ();
    let collected = ref 0 in
    List.iter
      (fun iid ->
        match Engine.status e iid with
        | Some (Wstate.Wf_done _) ->
          Engine.gc e iid (function Ok () -> incr collected | Error m -> failwith m)
        | _ -> failwith ("retention gate: " ^ iid ^ " did not complete"))
      iids;
    settle ();
    if !collected <> count then failwith "retention gate: an instance was not collected";
    if compact then Engine.compact e;
    Gc.full_major ();
    let live = (Gc.stat ()).Gc.live_words in
    (* the testbed is otherwise dead after the last settle: keep it
       reachable through the reading, or the second one would not count
       it *)
    ignore (Sys.opaque_identity tb);
    live
  in
  let n = 250 in
  let at_n = live_after n in
  let at_4n = live_after (3 * n) in
  let per_instance = float_of_int (at_4n - at_n) /. float_of_int (3 * n) in
  Printf.printf "%8d collected: %d live words\n%8d collected: %d live words\n%.1f words/instance%s\n"
    n at_n (4 * n) at_4n per_instance
    (if compact then "" else " (no Engine.compact)");
  per_instance

let retention_gates () =
  header "GATES: engine — live words per collected 3-task chain";
  let compacted = retained_words_per_instance ~compact:true in
  let uncompacted = retained_words_per_instance ~compact:false in
  (* about 17 words are left, mostly [Metrics] histogram samples
     (EXPERIMENTS.md A20). A store rebuilds its own table when it
     compacts (A21), and a local commit no longer takes a write lock, so
     the lock table's bucket array stays small (A22; it cost 5.5). Without
     [Engine.compact] the store's own bound keeps its log within twice
     its live keys; an unbounded log read about 696 *)
  [
    at_most "engine.retained_words_per_instance" compacted 40.;
    at_most "engine.uncompacted_words_per_instance" uncompacted 40.;
  ]

(* --- tx: what a local one-phase commit leaves behind --- *)

(* Words reachable from one participant after 250, and then 1,000,
   local one-phase commits that overwrite 10 keys; the row is the slope
   per commit. The store keeps one value per key and bounds its own log,
   so what grows with the commits is state kept per transaction, and
   this lane needs none: a direct call cannot repeat. A duplicate record
   and cached decision per commit read about 10.4. The walk is
   deterministic, so the slope repeats exactly. *)
let local_commit_gates () =
  header "GATES: tx — words a participant keeps per local one-phase commit";
  let c = Harness.cluster [ "a" ] in
  let mgr = Harness.manager c "a" and p = Harness.participant c "a" in
  let commits = ref 0 in
  let reachable_after count =
    while !commits < count do
      let key = "k" ^ string_of_int (!commits mod 10) and value = string_of_int !commits in
      (match
         Harness.exec c
           (Txn.run mgr (fun t ->
                Txn.write t ~node:"a" ~key ~value;
                Txn.return ()))
       with
      | Ok () -> ()
      | Error e -> failwith ("local commit gate: " ^ Txn.error_to_string e));
      incr commits
    done;
    Obj.reachable_words (Obj.repr p)
  in
  let at_250 = reachable_after 250 in
  let at_1000 = reachable_after 1_000 in
  let per_commit = float_of_int (at_1000 - at_250) /. 750. in
  Printf.printf "%8d commits: %d words\n%8d commits: %d words\n%.2f words/commit\n" 250 at_250
    1_000 at_1000 per_commit;
  [ at_most "tx.participant_words_per_local_commit" per_commit 1. ]

(* --- cluster: the supply chain over 1/2/4 engines --- *)

(* [dispatch_overhead] serializes every dispatch through its engine's
   coordinator, so with one engine the coordinator is the bottleneck;
   sharding the instances across engines removes it. Throughput is in
   virtual time, so every number here repeats exactly. *)
type cluster_run = {
  placed : (string * string) list;
  makespan : int;
  drain : int;
  dispatches : int;
  throughput : float;
}

let cluster_gates () =
  header "GATES: cluster scaling — supply chain at 1/2/4 engines";
  let instances = 12 in
  let engine_config = { Engine.default_config with Engine.dispatch_overhead = Sim.ms 2 } in
  let cluster_run ?repo_replicas n =
    let engines = List.init n (fun i -> Printf.sprintf "e%d" (i + 1)) in
    let c = Cluster.make ?repo_replicas ~engine_config ~engines () in
    Supply_chain.register ~scenario:Supply_chain.smooth (Cluster.registry c);
    let makespan = ref 0 in
    for _ = 1 to instances do
      let iid, _ =
        must
          (Cluster.launch c ~script:Supply_chain.script ~root:Supply_chain.root
             ~inputs:Supply_chain.inputs)
      in
      Cluster.on_complete c iid (fun status ->
          match status with
          | Wstate.Wf_done _ -> makespan := max !makespan (Sim.now (Cluster.sim c))
          | Wstate.Wf_running | Wstate.Wf_failed _ ->
            failwith ("cluster gates: " ^ iid ^ " did not complete"))
    done;
    Cluster.run c;
    let dispatches = Cluster.dispatches_total c in
    {
      placed = Cluster.placements c;
      makespan = !makespan;
      drain = Sim.now (Cluster.sim c);
      dispatches;
      throughput =
        (if !makespan > 0 then float_of_int dispatches /. (float_of_int !makespan /. 1e6) else 0.);
    }
  in
  Printf.printf "%8s %14s %12s %22s\n" "engines" "makespan(us)" "dispatches" "throughput(disp/vsec)";
  let runs =
    List.map
      (fun n ->
        let r = cluster_run n in
        Printf.printf "%8d %14d %12d %22.1f\n" n r.makespan r.dispatches r.throughput;
        (n, r))
      [ 1; 2; 4 ]
  in
  (* the consensus-replicated directory must stay off the data path:
     placement writes commit by quorum asynchronously, so task throughput
     with a 3-replica repository must stay within 10% of the single-node
     run at the same engine count *)
  let rep = cluster_run ~repo_replicas:3 2 in
  let throughput_of k = (List.assoc k runs).throughput in
  let ratio = rep.throughput /. throughput_of 2 in
  Printf.printf "%8s %14d %12d %22.1f   (3 replicas, ratio %.3f)\n" "2r" rep.makespan
    rep.dispatches rep.throughput ratio;
  let all_placed =
    List.for_all (fun r -> List.length r.placed = instances) (rep :: List.map snd runs)
  in
  let speedup = throughput_of 4 /. throughput_of 1 in
  [
    { name = "cluster.speedup_4_over_1"; value = speedup; bound = 1.0; ok = speedup > 1.0 };
    (* same seed, same code: placement and timing reproduce exactly *)
    holds "cluster.deterministic" (cluster_run 2 = cluster_run 2);
    holds "cluster.all_launches_placed" all_placed;
    at_least "cluster.replicated_ratio" ratio 0.9;
    holds "cluster.replicated_deterministic"
      (cluster_run ~repo_replicas:3 2 = cluster_run ~repo_replicas:3 2);
  ]

(* --- capacity: open-loop arrivals against a 4-engine cluster --- *)

(* Short chains (3 tasks, 1ms work each) arriving 10 per virtual ms, so
   per-instance launch/track/conclude overhead dominates. If that
   overhead grew with the number of instances seen so far (a rescan of
   every task, a whole-directory rewrite per launch, a compile per
   launch), the words allocated per dispatch would grow with the run's
   size. Allocation is deterministic, so the scaling gate compares two
   sizes exactly rather than a wall-clock ratio. *)
let capacity_engine_config =
  {
    Engine.default_config with
    dispatch_overhead = 50;
    (* release concluded mirrors: resident memory bounded by the live
       instance count *)
    retain_concluded = false;
    (* rendering and retaining a human-readable trace line per event is
       measurement overhead, not scheduling cost *)
    trace = false;
  }

type capacity_run = {
  words_per_inst : float;  (* peak resident words over instances *)
  words_per_dispatch : float;  (* minor-heap words allocated *)
  completed : int;
  counters : (string * int) list;
}

let capacity_run ~instances =
  (* heap left over from a previous run changes GC pacing; compact to a
     canonical state so sizes are comparable and order-independent *)
  Gc.compact ();
  let burst = 10 in
  let c =
    Cluster.make ~engine_config:capacity_engine_config ~policy:Cluster.Hash_iid
      ~engines:[ "e1"; "e2"; "e3"; "e4" ] ()
  in
  Workloads.register ~work:(Sim.ms 1) (Cluster.registry c);
  let script, root = Workloads.chain ~n:3 in
  let sim = Cluster.sim c in
  let completed = ref 0 in
  let peak = ref 0 in
  let sample_residency () =
    let words =
      List.fold_left (fun acc (_, e) -> acc + Engine.observe_residency e) 0 (Cluster.engines c)
    in
    if words > !peak then peak := words
  in
  (* bursts of [burst] every ms, so same-instant launches exercise the
     batched placement writes *)
  let bursts = (instances + burst - 1) / burst in
  for b = 0 to bursts - 1 do
    let in_burst = min burst (instances - (b * burst)) in
    ignore
      (Sim.schedule sim ~delay:(Sim.ms b) (fun () ->
           for _ = 1 to in_burst do
             let iid, _ = must (Cluster.launch c ~script ~root ~inputs:Workloads.seed_inputs) in
             Cluster.on_complete c iid (fun _ -> incr completed)
           done))
  done;
  (* residency sampled on a fixed virtual-time grid through the run *)
  let horizon = Sim.ms bursts + Sim.sec 2 in
  let rec arm_sampler at =
    if at <= horizon then
      ignore
        (Sim.at sim ~time:at (fun () ->
             sample_residency ();
             arm_sampler (at + Sim.ms 250)))
  in
  arm_sampler (Sim.ms 250);
  let w0 = Gc.minor_words () in
  Cluster.run c;
  let words = Gc.minor_words () -. w0 in
  sample_residency ();
  let m = Cluster.metrics c in
  let dispatches = Metrics.value m "engine.dispatches" in
  {
    words_per_inst = float_of_int !peak /. float_of_int instances;
    words_per_dispatch = (if dispatches > 0 then words /. float_of_int dispatches else 0.);
    completed = !completed;
    counters = Metrics.counters m;
  }

let capacity_gates ~sizes =
  header "GATES: capacity — 4 engines, chains of 3, 10 launches per virtual ms";
  let runs =
    List.map
      (fun n ->
        let r = capacity_run ~instances:n in
        Printf.printf "%8d instances: %.1f peak words/instance, %.1f words/dispatch\n" n
          r.words_per_inst r.words_per_dispatch;
        (n, r))
      sizes
  in
  let first_n, first = List.hd runs in
  let last = snd (List.nth runs (List.length runs - 1)) in
  [
    (* per-dispatch cost must not grow with history *)
    at_most "capacity.words_per_dispatch_growth"
      (last.words_per_dispatch /. first.words_per_dispatch) 1.05;
    at_most "capacity.words_per_instance"
      (List.fold_left (fun acc (_, r) -> max acc r.words_per_inst) 0. runs) 3_000.;
    holds "capacity.all_completed" (List.for_all (fun (n, r) -> r.completed = n) runs);
    holds "capacity.deterministic" ((capacity_run ~instances:first_n).counters = first.counters);
  ]

(* --- fan-out: per-completion cost against join width --- *)

(* 20 fan-out instances launched together on one engine, every worker
   on the remote task host h1 so network jitter spreads the completions
   that feed each join. If a completion re-evaluated the whole join, or
   walked anything else as wide as its scope, the words allocated per
   dispatch would grow with the width. Allocation is deterministic, so
   the gate compares two widths exactly. *)
let fanout_words_per_dispatch ~width =
  Gc.compact ();
  let instances = 20 in
  let c =
    Cluster.make
      ~engine_config:{ Engine.default_config with trace = false }
      ~hosts:[ "h1" ] ~engines:[ "e1" ] ()
  in
  Workloads.register ~work:(Sim.ms 1) (Cluster.registry c);
  let script, root = Workloads.fanout_remote ~width ~host:"h1" in
  let completed = ref 0 in
  ignore
    (Sim.schedule (Cluster.sim c) ~delay:0 (fun () ->
         for _ = 1 to instances do
           let iid, _ = must (Cluster.launch c ~script ~root ~inputs:Workloads.seed_inputs) in
           Cluster.on_complete c iid (function
             | Wstate.Wf_done _ -> incr completed
             | Wstate.Wf_running | Wstate.Wf_failed _ ->
               failwith ("fanout gate: " ^ iid ^ " did not complete"))
         done));
  let w0 = Gc.minor_words () in
  Cluster.run c;
  let words = Gc.minor_words () -. w0 in
  if !completed <> instances then failwith "fanout gate: instances missing";
  words /. float_of_int (Cluster.dispatches_total c)

let fanout_gates ~widths:(narrow, wide) =
  header
    (Printf.sprintf "GATES: fan-out — 20 instances, widths %d and %d, workers on h1" narrow wide);
  let at_narrow = fanout_words_per_dispatch ~width:narrow in
  let at_wide = fanout_words_per_dispatch ~width:wide in
  Printf.printf "%8d wide: %.1f words/dispatch\n%8d wide: %.1f words/dispatch\n" narrow at_narrow
    wide at_wide;
  (* per-completion cost must not grow with the width of the join *)
  [ at_most "fanout.words_per_dispatch_growth" (at_wide /. at_narrow) 1.05 ]

(* --- hot path: steady-state allocation per operation --- *)

(* [Gc.allocated_bytes] counts the minor heap only up to its last
   collection, so a minor collection at each end of the window makes the
   count exact rather than whatever fell between two collections. *)
let bytes_per_op ~ops f =
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  (Gc.allocated_bytes () -. a0) /. float_of_int ops

let heap_bytes ~ops =
  let h = Heap.create ~cmp:compare in
  (* warm to a realistic pending-queue depth so growth doubling is paid
     before the measured window *)
  for i = 0 to 255 do Heap.push h i done;
  bytes_per_op ~ops (fun () ->
      for i = 0 to ops - 1 do
        Heap.push h ((i * 7919) mod 65536);
        ignore (Heap.pop_exn h)
      done)

(* encode+decode of a representative message *)
let wire_bytes ~ops =
  let enc = Wire.(b_pair b_string (b_list b_int)) in
  let dec = Wire.(d_pair d_string (d_list d_int)) in
  let v = ("wf-1:task/step17:done", [ 3; 1417; 0; 88_000_000; 42 ]) in
  let encoded = Wire.run enc v in
  let encode =
    bytes_per_op ~ops (fun () ->
        for _ = 1 to ops do
          if String.length (Wire.run enc v) <> String.length encoded then
            failwith "wire encode mismatch"
        done)
  in
  let decode =
    bytes_per_op ~ops (fun () ->
        for _ = 1 to ops do
          if Wire.decode dec encoded <> v then failwith "wire decode mismatch"
        done)
  in
  (encode, decode)

let wal_bytes ~ops =
  let w = Wal.create ~name:"bench" in
  let record = "k:wf-1:t:root/step:v:Running" in
  let bytes = bytes_per_op ~ops (fun () -> for _ = 1 to ops do Wal.append w record done) in
  if Wal.length w <> ops then failwith "wal length mismatch";
  bytes

(* one front-end compile of the supply-chain script (lex, parse, expand,
   validate, resolve), after a warm-up compile, per byte of source *)
let compile_bytes () =
  let compile () =
    match Frontend.compile Supply_chain.script ~root:Supply_chain.root with
    | Ok _ -> ()
    | Error e -> failwith ("compile gate: " ^ Frontend.error_to_string e)
  in
  compile ();
  bytes_per_op ~ops:(String.length Supply_chain.script) compile

(* the chain smoke sweep, timed in wall seconds: processor time sums over
   domains, so it cannot show a parallel speed-up *)
let explore_sweep ~jobs =
  let t0 = Unix.gettimeofday () in
  let r = Explorer.explore ~jobs ~mode:"bench" Explorer.smoke_budget [ Scenario.chain ] in
  (r, Unix.gettimeofday () -. t0)

let hotpath_gates ~scale =
  header "GATES: hot path — allocation per operation, explore scaling";
  let heap = heap_bytes ~ops:(200_000 * scale) in
  let encode, decode = wire_bytes ~ops:(50_000 * scale) in
  let wal = wal_bytes ~ops:(500_000 * scale) in
  let compile = compile_bytes () in
  Printf.printf "bytes/op: heap %.2f, wire encode %.2f, decode %.2f, wal %.2f\n" heap encode
    decode wal;
  Printf.printf "compile: %.2f bytes per source byte\n" compile;
  let cores = Pool.default_jobs () in
  let jobs = min 4 cores in
  let serial, serial_s = explore_sweep ~jobs:1 in
  let parallel, parallel_s = explore_sweep ~jobs in
  let scaling = serial_s /. parallel_s in
  (* scaling is only meaningful with the cores to show it *)
  let gated = cores >= 4 in
  Printf.printf "explore: %d schedules, %.2fx at %d jobs%s\n" (Explorer.total_schedules serial)
    scaling jobs
    (if gated then "" else Printf.sprintf " (not gated: %d cores)" cores);
  [
    (* allocation-free sifts: steady-state heap traffic allocates nothing
       beyond rounding noise *)
    at_most "hotpath.heap_bytes_per_op" heap 2.0;
    (* encode allocates only the final contents string (scratch reused);
       decode allocates the string payloads plus list/pair structure *)
    at_most "hotpath.wire_encode_bytes_per_op" encode 160.;
    at_most "hotpath.wire_decode_bytes_per_op" decode 512.;
    (* amortized array growth only *)
    at_most "hotpath.wal_bytes_per_op" wal 32.;
    (* the lexer allocates only its tokens; the rest is the parser's AST
       and the later passes. About 25 % above the value; a lexer that
       allocated per byte (EXPERIMENTS.md A19) read about 89 *)
    at_most "hotpath.compile_bytes_per_source_byte" compile 45.;
    at_most "hotpath.explore_failures"
      (float_of_int (Explorer.total_failures serial + Explorer.total_failures parallel))
      0.;
    { name = "hotpath.explore_scaling"; value = scaling; bound = 3.0;
      ok = (not gated) || scaling >= 3.0 };
  ]

let write_gates ~mode gates =
  let row g =
    Printf.sprintf "    { \"name\": %S, \"value\": %.4f, \"bound\": %.4f, \"ok\": %b }" g.name
      g.value g.bound g.ok
  in
  let oc = open_out "BENCH_gates.json" in
  Printf.fprintf oc
    "{\n  \"schema\": \"rdal-bench-gates/1\",\n  \"mode\": %S,\n  \"gates\": [\n%s\n  ]\n}\n" mode
    (String.concat ",\n" (List.map row gates));
  close_out oc

let run_gates ~mode ~capacity_sizes ~fanout_widths ~hotpath_scale =
  let engine = engine_gates () @ history_gates () @ retention_gates () @ local_commit_gates () in
  let cluster = cluster_gates () in
  let capacity = capacity_gates ~sizes:capacity_sizes in
  let fanout = fanout_gates ~widths:fanout_widths in
  let gates = engine @ cluster @ capacity @ fanout @ hotpath_gates ~scale:hotpath_scale in
  header "GATES";
  List.iter
    (fun g ->
      Printf.printf "  %-36s %12.4f  bound %10.4f  %s\n" g.name g.value g.bound
        (if g.ok then "ok" else "FAILED"))
    gates;
  write_gates ~mode gates;
  print_endline "wrote BENCH_gates.json";
  if not (List.for_all (fun g -> g.ok) gates) then exit 1

let figures () =
  print_endline "RDAL benchmark harness — regenerating the paper's figures";
  print_endline "(see EXPERIMENTS.md for the figure-by-figure mapping)";
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8_9 ();
  sweep_chain ();
  sweep_fanout ();
  a1_fault_ablation ();
  a6_loss_sweep ();
  a2_reconfig ();
  a3_alternatives ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--smoke" ] ->
    print_endline "RDAL benchmark harness — smoke mode (gates only)";
    run_gates ~mode:"smoke" ~capacity_sizes:[ 1_000; 2_000 ] ~fanout_widths:(8, 64)
      ~hotpath_scale:1
  | [] ->
    figures ();
    run_gates ~mode:"default" ~capacity_sizes:[ 10_000; 20_000 ] ~fanout_widths:(8, 128)
      ~hotpath_scale:4
  | [ "--full" ] ->
    figures ();
    run_gates ~mode:"full" ~capacity_sizes:[ 10_000; 20_000; 50_000; 100_000 ]
      ~fanout_widths:(8, 128) ~hotpath_scale:4
  | _ ->
    prerr_endline "usage: main.exe [--smoke | --full]";
    exit 2
