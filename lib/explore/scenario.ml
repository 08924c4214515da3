(* Exploration scenarios: a named workload that can be rebuilt from
   scratch for every schedule. [sc_run] constructs a fresh stack, plants
   the fault plan at setup (so a fault at the same instant as a run
   event fires first — lower sequence number), drives the run to the
   horizon and returns the final observation. Determinism of the
   simulator makes the fault-free observation a stable reference. *)

type t = {
  sc_name : string;
  sc_multi_engine : bool;
  sc_crash_nodes : string list;  (* nodes schedules may crash/restart *)
  sc_nodes : string list;  (* full population (partition peers incl. repo) *)
  sc_run : Fault.t -> Decision.t option -> Oracle.obs;
  sc_judge : reference:Oracle.obs -> Oracle.obs -> Oracle.verdict list;
      (* the oracle battery for this scenario; recovery scenarios extend
         the stock [Oracle.judge] with policy conformance *)
}

(* Generous retry/deadline budget: with restarts always following
   crashes, every workload should still finish — any run that does not
   is a finding, not noise. The oracles judge stores, statuses and the
   event bus, never an engine's own event log, so none is kept. *)
let engine_config =
  {
    Engine.default_config with
    Engine.default_deadline = Sim.ms 80;
    system_max_attempts = 200;
    trace = false;
  }

let horizon = Sim.sec 240

let subscribe_opt sim = function
  | Some c -> Event.subscribe (Sim.events sim) (Decision.subscriber c)
  | None -> ()

let status_string e iid =
  match Engine.status e iid with
  | Some s -> Format.asprintf "%a" Wstate.pp_status s
  | None -> "unknown"

let engine_obs engines =
  let statuses =
    List.concat_map
      (fun (_, e) -> List.map (fun iid -> (iid, status_string e iid)) (Engine.instances e))
      engines
  in
  let histories = List.concat_map (fun (_, e) -> Engine.histories e) engines in
  (statuses, histories)

let chain =
  let sc_run plan collect =
    let tb = Testbed.make ~engine_config ~nodes:[ "n0"; "h1" ] () in
    subscribe_opt tb.Testbed.sim collect;
    Workloads.register ~work:(Sim.ms 5) tb.Testbed.registry;
    Testbed.apply_faults tb plan;
    let script, root = Workloads.chain_remote ~n:6 ~host:"h1" in
    (match
       Testbed.launch_and_run ~until:horizon tb ~script ~root ~inputs:Workloads.seed_inputs
     with
    | Ok _ -> ()
    | Error e -> failwith ("chain launch failed: " ^ e));
    let statuses, histories = engine_obs tb.Testbed.engines in
    Oracle.observe ~statuses ~histories ~participants:tb.Testbed.participants
      ~managers:tb.Testbed.managers ~placements:[] ~directory:[] ~owned:[]
      ~drained:(Sim.pending tb.Testbed.sim = 0) ()
  in
  {
    sc_name = "chain";
    sc_multi_engine = false;
    sc_crash_nodes = [ "n0"; "h1" ];
    sc_nodes = [ "n0"; "h1" ];
    sc_run;
    sc_judge = Oracle.judge;
  }

let supply =
  let sc_run plan collect =
    let tb = Testbed.make ~engine_config () in
    subscribe_opt tb.Testbed.sim collect;
    Supply_chain.register ~work:(Sim.ms 5) ~scenario:Supply_chain.smooth
      tb.Testbed.registry;
    Testbed.apply_faults tb plan;
    (match
       Testbed.launch_and_run ~until:horizon tb ~script:Supply_chain.script
         ~root:Supply_chain.root ~inputs:Supply_chain.inputs
     with
    | Ok _ -> ()
    | Error e -> failwith ("supply-chain launch failed: " ^ e));
    let statuses, histories = engine_obs tb.Testbed.engines in
    Oracle.observe ~statuses ~histories ~participants:tb.Testbed.participants
      ~managers:tb.Testbed.managers ~placements:[] ~directory:[] ~owned:[]
      ~drained:(Sim.pending tb.Testbed.sim = 0) ()
  in
  {
    sc_name = "supply-chain";
    sc_multi_engine = false;
    sc_crash_nodes = [ "n0" ];
    sc_nodes = [ "n0" ];
    sc_run;
    sc_judge = Oracle.judge;
  }

let cluster3 =
  let sc_run plan collect =
    let cl = Cluster.make ~engine_config ~engines:[ "e1"; "e2"; "e3" ] () in
    subscribe_opt (Cluster.sim cl) collect;
    Workloads.register ~work:(Sim.ms 5) (Cluster.registry cl);
    Cluster.apply_faults cl plan;
    let script, root = Workloads.chain ~n:4 in
    for _ = 1 to 6 do
      match Cluster.launch cl ~script ~root ~inputs:Workloads.seed_inputs with
      | Ok _ -> ()
      | Error e -> failwith ("cluster launch failed: " ^ e)
    done;
    Cluster.run ~until:horizon cl;
    let statuses, histories = engine_obs (Cluster.engines cl) in
    let owned =
      List.concat_map
        (fun (eid, e) -> List.map (fun iid -> (iid, eid)) (Engine.instances e))
        (Cluster.engines cl)
    in
    Oracle.observe ~statuses ~histories ~participants:(Cluster.participants cl)
      ~managers:(Cluster.managers cl)
      ~placements:(Repository.placements (Cluster.repository cl))
      ~directory:(Cluster.placements cl) ~owned
      ~drained:(Sim.pending (Cluster.sim cl) = 0) ()
  in
  {
    sc_name = "cluster3";
    sc_multi_engine = true;
    sc_crash_nodes = [ "e1"; "e2"; "e3" ];
    sc_nodes = [ "e1"; "e2"; "e3"; "repo" ];
    sc_run;
    sc_judge = Oracle.judge;
  }

(* --- declarative-recovery scenarios ---

   One scenario per recovery construct, each judged by the stock battery
   {e plus} the policy-conformance oracle holding the engine's durable
   policy rows against the spec the script declared. The work leaf is
   pinned to [h1], so crash and partition schedules land on the
   dispatch/report message boundaries of the recovering task itself. *)

let recovery_scenario ~name ~build ~specs =
  let sc_run plan collect =
    let tb = Testbed.make ~engine_config ~nodes:[ "n0"; "h1" ] () in
    subscribe_opt tb.Testbed.sim collect;
    Workloads.register_recovery tb.Testbed.registry;
    Testbed.apply_faults tb plan;
    let script, root = build ~host:"h1" in
    (match
       Testbed.launch_and_run ~until:horizon tb ~script ~root ~inputs:Workloads.seed_inputs
     with
    | Ok _ -> ()
    | Error e -> failwith (name ^ " launch failed: " ^ e));
    let statuses, histories = engine_obs tb.Testbed.engines in
    Oracle.observe ~statuses ~histories ~participants:tb.Testbed.participants
      ~managers:tb.Testbed.managers ~placements:[] ~directory:[] ~owned:[]
      ~drained:(Sim.pending tb.Testbed.sim = 0) ()
  in
  {
    sc_name = name;
    sc_multi_engine = false;
    sc_crash_nodes = [ "n0"; "h1" ];
    sc_nodes = [ "n0"; "h1" ];
    sc_run;
    sc_judge = Oracle.judge_with ~policy:specs;
  }

let spec ?(codes = []) ?substitute ?compensate ?abort_output ~max_attempts () =
  {
    Oracle.ps_path = "flow/work";
    ps_max_attempts = max_attempts;
    ps_codes = codes;
    ps_substitute = substitute;
    ps_compensate = compensate;
    ps_abort_output = abort_output;
  }

(* [retry 8]: 1 + 8 attempts on the single code *)
let recovery_retry =
  recovery_scenario ~name:"recovery-retry" ~build:Workloads.recovery_retry
    ~specs:[ spec ~codes:[ "r.flaky" ] ~max_attempts:9 () ]

(* no [retry] clause: each band gets the config default budget, and the
   substitute band doubles the grand total *)
let recovery_timeout =
  recovery_scenario ~name:"recovery-timeout" ~build:Workloads.recovery_timeout
    ~specs:
      [
        spec ~codes:[ "r.hang" ] ~substitute:"r.sub"
          ~max_attempts:(2 * engine_config.Engine.system_max_attempts) ();
      ]

(* [retry 4] over primary + one alternative: 5 attempts per band *)
let recovery_alternative =
  recovery_scenario ~name:"recovery-alternative" ~build:Workloads.recovery_alternative
    ~specs:[ spec ~codes:[ "r.dead"; "r.alive" ] ~max_attempts:10 () ]

let recovery_compensate =
  recovery_scenario ~name:"recovery-compensate" ~build:Workloads.recovery_compensate
    ~specs:
      [
        spec ~codes:[ "r.abort" ] ~compensate:"undo" ~abort_output:"failed"
          ~max_attempts:engine_config.Engine.system_max_attempts ();
      ]

let recovery_all =
  [ recovery_retry; recovery_timeout; recovery_alternative; recovery_compensate ]

(* --- replicated-repository scenarios ---

   Three engines over a 3-replica consensus repository. Crash and
   partition schedules may now hit the repository nodes themselves:
   leader crashes mid-placement-write, partitioned leaders, election
   races. Judged by the stock battery — which includes the
   log-linearizability and routed-consistency oracles, fed here with the
   per-replica committed logs and post-drain routed owner lookups. *)

(* [drained] is captured right after the main run: the observation
   phases below schedule fresh traffic past the horizon clock, so they
   drain with an unbounded run and must not launder a stuck main run
   into a clean "drained" verdict. *)
let replicated_obs cl ~drained =
  let statuses, histories = engine_obs (Cluster.engines cl) in
  let owned =
    List.concat_map
      (fun (eid, e) -> List.map (fun iid -> (iid, eid)) (Engine.instances e))
      (Cluster.engines cl)
  in
  (* the fault plan has fully healed by now (restarts always follow
     crashes, partitions lift): one quorum no-op append re-establishes a
     leader if elections went quiescent and pushes every reachable
     replica to the committed tip, so the logs and the routed answers
     below observe the converged group, not a mid-catch-up snapshot *)
  let sync =
    Rlog_client.create ~rpc:(Cluster.rpc cl) ~src:(List.hd (Cluster.engine_ids cl))
      ~replicas:(Cluster.repo_nodes cl) ()
  in
  Rlog_client.append sync ~payload:"" (fun _ -> ());
  Cluster.run cl;
  let placements = Repository.placements (Cluster.repository cl) in
  let routed = ref [] in
  List.iter
    (fun (iid, _) ->
      Cluster.owner_rpc cl ~src:(List.hd (Cluster.engine_ids cl)) ~iid (function
        | Ok (Some o) -> routed := (iid, o) :: !routed
        | Ok None -> routed := (iid, "<none>") :: !routed
        | Error e -> routed := (iid, "<unreachable: " ^ e ^ ">") :: !routed))
    placements;
  Cluster.run cl;
  let logs =
    match Cluster.repo_group cl with Some g -> Repo_group.logs g | None -> []
  in
  Oracle.observe ~logs ~routed:!routed ~statuses ~histories
    ~participants:(Cluster.participants cl) ~managers:(Cluster.managers cl)
    ~placements ~directory:(Cluster.placements cl) ~owned
    ~drained:(drained && Sim.pending (Cluster.sim cl) = 0) ()

(* Decision points must come from the workload run only: the
   observation phases above generate their own cons/repo traffic past
   the horizon clock, and harvesting those instants would aim schedules
   into the observation window instead of the run. *)
let subscribe_gated sim collect =
  let live = ref true in
  (match collect with
  | Some c ->
    Event.subscribe (Sim.events sim) (fun ~at ~src ev ->
        if !live then Decision.subscriber c ~at ~src ev)
  | None -> ());
  fun () -> live := false

let repo_failover =
  let sc_run plan collect =
    let cl = Cluster.make ~engine_config ~engines:[ "e1"; "e2"; "e3" ] ~repo_replicas:3 () in
    let stop_collecting = subscribe_gated (Cluster.sim cl) collect in
    Workloads.register ~work:(Sim.ms 5) (Cluster.registry cl);
    Cluster.apply_faults cl plan;
    let script, root = Workloads.chain ~n:4 in
    for _ = 1 to 6 do
      match Cluster.launch cl ~script ~root ~inputs:Workloads.seed_inputs with
      | Ok _ -> ()
      | Error e -> failwith ("repo-failover launch failed: " ^ e)
    done;
    Cluster.run ~until:horizon cl;
    stop_collecting ();
    replicated_obs cl ~drained:(Sim.pending (Cluster.sim cl) = 0)
  in
  {
    sc_name = "repo-failover";
    sc_multi_engine = true;
    sc_crash_nodes = [ "e1"; "repo1"; "repo2"; "repo3" ];
    sc_nodes = [ "e1"; "e2"; "e3"; "repo1"; "repo2"; "repo3" ];
    sc_run;
    sc_judge = Oracle.judge;
  }

(* A scripted leader crash mid-run: the bootstrap leader repo1 dies
   while placements are in flight and returns later, so the *reference*
   run already contains a failover election — its vote/replicate traffic
   and election events become decision points, and schedules then aim
   crashes of the surviving replicas (and partitions) into the election
   window itself: election races. repo1 is deliberately not in
   [sc_crash_nodes] (the script owns its lifecycle). *)
let repo_election =
  let sc_run plan collect =
    let cl = Cluster.make ~engine_config ~engines:[ "e1"; "e2" ] ~repo_replicas:3 () in
    let stop_collecting = subscribe_gated (Cluster.sim cl) collect in
    Workloads.register ~work:(Sim.ms 5) (Cluster.registry cl);
    Cluster.apply_faults cl plan;
    let sim = Cluster.sim cl in
    ignore (Sim.schedule sim ~delay:(Sim.ms 12) (fun () -> Cluster.crash cl "repo1"));
    ignore (Sim.schedule sim ~delay:(Sim.ms 120) (fun () -> Cluster.recover cl "repo1"));
    let script, root = Workloads.chain ~n:4 in
    for _ = 1 to 6 do
      match Cluster.launch cl ~script ~root ~inputs:Workloads.seed_inputs with
      | Ok _ -> ()
      | Error e -> failwith ("repo-election launch failed: " ^ e)
    done;
    Cluster.run ~until:horizon cl;
    stop_collecting ();
    replicated_obs cl ~drained:(Sim.pending (Cluster.sim cl) = 0)
  in
  {
    sc_name = "repo-election";
    sc_multi_engine = true;
    sc_crash_nodes = [ "e1"; "repo2"; "repo3" ];
    sc_nodes = [ "e1"; "e2"; "repo1"; "repo2"; "repo3" ];
    sc_run;
    sc_judge = Oracle.judge;
  }

let replication_all = [ repo_failover; repo_election ]

let all = [ chain; supply; cluster3 ]

let by_name name =
  List.find_opt (fun s -> s.sc_name = name) (all @ recovery_all @ replication_all)
