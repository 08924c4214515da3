(* Tests of the sharded multi-engine cluster layer: placement policies,
   the repository-backed placement directory, routed status queries,
   engines co-hosted on one fabric (namespaced services, scoped
   observability), and crash recovery of one shard while the others run
   undisturbed. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

let must = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let chain_script, chain_root = Workloads.chain ~n:4

let make_cluster ?policy ?hosts ?engine_config ?seed ?work ?repo_replicas ~engines () =
  let c = Cluster.make ?policy ?hosts ?engine_config ?seed ?repo_replicas ~engines () in
  Workloads.register ?work (Cluster.registry c);
  c

let launch_chain c =
  must (Cluster.launch c ~script:chain_script ~root:chain_root ~inputs:Workloads.seed_inputs)

let is_done = function Some (Wstate.Wf_done _) -> true | _ -> false

(* --- placement --- *)

let test_round_robin_placement_and_routing () =
  let c = make_cluster ~engines:[ "e1"; "e2"; "e3" ] () in
  let placed = List.init 6 (fun _ -> launch_chain c) in
  check "round robin cycles engines in creation order" true
    (List.map snd placed = [ "e1"; "e2"; "e3"; "e1"; "e2"; "e3" ]);
  Cluster.run c;
  List.iter
    (fun (iid, eid) ->
      check_str ("owner of " ^ iid) eid (Option.get (Cluster.owner c iid));
      check ("routed status of " ^ iid) true (is_done (Cluster.status c iid)))
    placed;
  check "shards balanced" true
    (List.for_all (fun (_, n) -> n = 2) (Cluster.per_engine_instances c));
  check_int "aggregate dispatches: 6 instances x 4 steps" 24 (Cluster.dispatches_total c);
  check_int "aggregate completions" 24 (Cluster.completions_total c);
  (* the labelled registry carries the per-engine breakdown *)
  let m = Cluster.metrics c in
  List.iter
    (fun eid ->
      check_int ("cluster." ^ eid ^ ".concluded") 2
        (Metrics.value m (Printf.sprintf "cluster.%s.concluded" eid)))
    (Cluster.engine_ids c)

let test_hash_placement_deterministic () =
  let run_once () =
    let c = make_cluster ~policy:Cluster.Hash_iid ~engines:[ "e1"; "e2" ] () in
    let placed = List.init 8 (fun _ -> launch_chain c) in
    Cluster.run c;
    List.iter
      (fun (iid, _) -> check ("done " ^ iid) true (is_done (Cluster.status c iid)))
      placed;
    (placed, Cluster.placements c)
  in
  let placed_a, dir_a = run_once () in
  let placed_b, dir_b = run_once () in
  check "same seed, same placement" true (placed_a = placed_b);
  check "same directory" true (dir_a = dir_b);
  check "hash actually spreads across both engines" true
    (List.exists (fun (_, e) -> e = "e1") placed_a
    && List.exists (fun (_, e) -> e = "e2") placed_a)

let test_duplicate_iid_rejected () =
  let tb = Testbed.make () in
  Workloads.register tb.Testbed.registry;
  let e = tb.Testbed.engine in
  ignore
    (must (Engine.launch e ~iid:"dup" ~script:chain_script ~root:chain_root
             ~inputs:Workloads.seed_inputs));
  match Engine.launch e ~iid:"dup" ~script:chain_script ~root:chain_root
          ~inputs:Workloads.seed_inputs with
  | Ok _ -> Alcotest.fail "second launch with the same iid must be refused"
  | Error e -> check "error names the iid" true (String.length e > 0)

(* --- the placement directory --- *)

let test_directory_answers_from_any_node () =
  let c = make_cluster ~hosts:[ "h0" ] ~engines:[ "e1"; "e2" ] () in
  let placed = List.init 4 (fun _ -> launch_chain c) in
  Cluster.run c;
  (* the durable owner, asked over RPC from a node that runs no engine *)
  List.iter
    (fun (iid, eid) ->
      let got = ref None in
      Cluster.owner_rpc c ~src:"h0" ~iid (fun r -> got := Some r);
      Cluster.run c;
      check ("rpc owner of " ^ iid) true (!got = Some (Ok (Some eid))))
    placed;
  (* unknown instances resolve to None, not an error *)
  let got = ref None in
  Cluster.owner_rpc c ~src:"h0" ~iid:"no-such" (fun r -> got := Some r);
  Cluster.run c;
  check "unknown iid has no owner" true (!got = Some (Ok None));
  (* and the full directory listing matches the router's cache *)
  let client = Repo_client.create ~rpc:(Cluster.rpc c) ~src:"h0" ~repo_node:"repo" in
  let listing = ref [] in
  Repo_client.placements client (fun r -> listing := must r);
  Cluster.run c;
  check "directory listing matches cache" true
    (List.sort compare !listing = Cluster.placements c)

(* --- co-hosted engines: namespaced services, scoped observability --- *)

let relocate_steps script ~to_ =
  (* pin every w.step implementation onto the named host node *)
  let marker = {|"code" is "w.step"|} in
  let replacement = Printf.sprintf {|"code" is "w.step", "location" is %S|} to_ in
  let ml = String.length marker in
  let b = Buffer.create (String.length script) in
  let i = ref 0 in
  while !i < String.length script do
    if !i + ml <= String.length script && String.sub script !i ml = marker then begin
      Buffer.add_string b replacement;
      i := !i + ml
    end
    else begin
      Buffer.add_char b script.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_shared_host_serves_both_engines () =
  (* both engines pin all their tasks onto the same host node: the
     per-engine exec/done/mark service namespacing must route every
     report back to the engine that dispatched it *)
  let tb = Testbed.make ~nodes:[ "a"; "b"; "h" ] ~engines:[ "a"; "b" ] () in
  Workloads.register tb.Testbed.registry;
  let script = relocate_steps chain_script ~to_:"h" in
  let ea = Testbed.engine_on tb "a" and eb = Testbed.engine_on tb "b" in
  let ia = must (Engine.launch ea ~script ~root:chain_root ~inputs:Workloads.seed_inputs) in
  let ib = must (Engine.launch eb ~script ~root:chain_root ~inputs:Workloads.seed_inputs) in
  Testbed.run tb;
  check "a's instance done" true (is_done (Engine.status ea ia));
  check "b's instance done" true (is_done (Engine.status eb ib));
  check_int "a saw exactly its own 4 completions" 4 (Engine.completions_total ea);
  check_int "b saw exactly its own 4 completions" 4 (Engine.completions_total eb);
  check_int "nothing was ever re-dispatched" 0
    (Engine.system_retries_total ea + Engine.system_retries_total eb);
  (* per-engine metrics are scoped by event source: neither registry
     double-counts the other engine's traffic on the shared bus *)
  check_int "a's registry counts only a's dispatches" 4
    (Metrics.value (Engine.metrics ea) "engine.dispatches");
  check_int "b's registry counts only b's dispatches" 4
    (Metrics.value (Engine.metrics eb) "engine.dispatches")

(* --- fault tolerance: one shard crashes, the others never notice --- *)

let test_launch_into_down_engine_refused () =
  (* a crashed engine must refuse a launch and write nothing: the
     client's retry after recovery is then the only launch, committed
     once and dispatched once per task *)
  let c = make_cluster ~engines:[ "e1"; "e2" ] () in
  let e1 = Cluster.engine c "e1" in
  Cluster.crash c "e1";
  (match Cluster.launch c ~script:chain_script ~root:chain_root ~inputs:Workloads.seed_inputs with
  | Ok (_, eid) -> Alcotest.failf "launch into crashed e1 accepted (placed on %s)" eid
  | Error e -> check_str "refusal names the engine" "engine e1 is down" e);
  Cluster.run c;
  Cluster.recover c "e1";
  Cluster.run c;
  check "refused launch left no instance" true (Engine.histories e1 = []);
  let iid, eid = launch_chain c in
  check_str "retry placed on the recovered engine" "e1" eid;
  Cluster.run c;
  check "retry completed" true (is_done (Cluster.status c iid));
  let launches =
    List.filter (fun (_, kind, _) -> kind = "launch") (Engine.history e1 iid)
  in
  check_int "one launch row" 1 (List.length launches);
  check_int "one dispatch per task" 4 (Engine.dispatches_total e1)

let test_placement_retry_fenced_by_engine_crash () =
  (* e1 is cut off from the repository, so its placement batch
     exhausts the RPC budget and the retry is scheduled 50 ms out. e1
     crashing inside that window ends the retry: nothing may leave e1
     while it is down, and its recovery hook alone re-asserts the
     placement once the cut heals *)
  let c = make_cluster ~engines:[ "e1"; "e2" ] () in
  let net = Cluster.net c and sim = Cluster.sim c in
  let e1 = Network.node net "e1" in
  Network.partition_on net "e1" "repo";
  let timed_out = ref false and sent_while_down = ref 0 in
  Event.subscribe (Sim.events sim) (fun ~at:_ ~src:_ -> function
    | Event.Rpc_timed_out { src = "e1"; service; _ }
      when service = Repository.service Repository.op_assign_batch && not !timed_out ->
      timed_out := true;
      ignore (Sim.schedule sim ~delay:(Sim.ms 10) (fun () -> Cluster.crash c "e1"));
      ignore
        (Sim.schedule sim ~delay:(Sim.ms 510) (fun () ->
             Network.partition_off net "e1" "repo";
             Cluster.recover c "e1"))
    | Event.Rpc_sent { src = "e1"; _ } when not (Node.up e1) -> incr sent_while_down
    | _ -> ());
  let iid, eid = launch_chain c in
  check_str "placed on e1" "e1" eid;
  Cluster.run c;
  check "the batch exhausted its budget" true !timed_out;
  check_int "no call from the crashed engine" 0 !sent_while_down;
  check "placement re-asserted after recovery" true
    (Repository.owner (Cluster.repository c) ~iid = Some "e1");
  check "instance done" true (is_done (Cluster.status c iid))

let test_shard_crash_recovery_isolated () =
  let c =
    make_cluster ~work:(Sim.ms 25) ~engines:[ "e1"; "e2"; "e3" ]
      ~engine_config:{ Engine.default_config with Engine.default_deadline = Sim.ms 150 } ()
  in
  let placed = List.init 6 (fun _ -> launch_chain c) in
  (* shard e2 dies mid-run and comes back — as a declarative plan *)
  Cluster.apply_faults c (Fault.crash_restart ~node:"e2" ~at:(Sim.ms 40) ~down_for:(Sim.ms 400));
  Cluster.run c;
  List.iter
    (fun (iid, _) -> check (iid ^ " completed") true (is_done (Cluster.status c iid)))
    placed;
  check "crashed shard replayed its log" true
    (Engine.recoveries_total (Cluster.engine c "e2") >= 1);
  check "crashed shard kept both instances" true
    (List.length (Cluster.instances_of c "e2") = 2);
  (* instances placed on the other shards were never stalled or
     re-dispatched by e2's failure *)
  List.iter
    (fun eid ->
      check_int (eid ^ " never re-dispatched") 0
        (Engine.system_retries_total (Cluster.engine c eid));
      check_int (eid ^ " never ran recovery") 0
        (Engine.recoveries_total (Cluster.engine c eid)))
    [ "e1"; "e3" ]

(* --- the consensus-replicated repository behind the cluster --- *)

let test_replicated_leader_kill_mid_launch () =
  (* the acceptance schedule: the repository leader dies while the
     launches' placement writes are in flight. Quorum commit plus
     client-id dedup mean no placement is lost and no launch applies
     twice; the client fails over to the new leader transparently. *)
  let c = make_cluster ~repo_replicas:3 ~engines:[ "e1"; "e2"; "e3" ] () in
  check "replica set named repo1..repo3" true
    (Cluster.repo_nodes c = [ "repo1"; "repo2"; "repo3" ]);
  let placed = List.init 6 (fun _ -> launch_chain c) in
  Cluster.apply_faults c
    (Fault.crash_restart ~node:"repo1" ~at:(Sim.ms 1) ~down_for:(Sim.ms 80));
  Cluster.run c;
  List.iter
    (fun (iid, _) -> check (iid ^ " completed") true (is_done (Cluster.status c iid)))
    placed;
  check_int "no task effect duplicated: 6 instances x 4 steps" 24
    (Cluster.completions_total c);
  (* no placement lost: the durable directory agrees with the router *)
  check "directory survived the leader crash" true
    (Repository.placements (Cluster.repository c) = Cluster.placements c);
  let group = Option.get (Cluster.repo_group c) in
  check "the group has a leader after failover" true (Repo_group.leader group <> None);
  (* the routed owner lookup works against the healed group, from a
     node that runs no engine at all *)
  let iid, eid = List.hd placed in
  let got = ref None in
  Cluster.owner_rpc c ~src:"e2" ~iid (fun r -> got := Some r);
  Cluster.run c;
  check "owner routed through the replica set" true (!got = Some (Ok (Some eid)))

(* --- recovery-policy budget counters over the status RPC --- *)

let test_policy_budgets_over_rpc () =
  let c = make_cluster ~hosts:[ "h0" ] ~engines:[ "e1"; "e2" ] () in
  let iid, _ = launch_chain c in
  Cluster.run c;
  check "instance done" true (is_done (Cluster.status c iid));
  let local = Cluster.policy_budgets c iid in
  check "counters non-empty" true (local <> []);
  check "a completed step records its one attempt" true
    (List.exists (fun b -> b.Instate.pb_attempts = 1) local);
  check "no backoff pending, nothing compensated" true
    (List.for_all
       (fun b -> b.Instate.pb_backoff_remaining = 0 && not b.Instate.pb_compensated)
       local);
  (* the same rows, resolved entirely over the fabric from a node that
     runs no engine: directory lookup, then the owner's admin service *)
  let got = ref None in
  Cluster.policy_budgets_rpc c ~src:"h0" ~iid (fun r -> got := Some r);
  Cluster.run c;
  check "rpc answer matches the local counters" true (!got = Some (Ok local));
  (* unknown instances surface an error, not an empty budget list *)
  let missing = ref None in
  Cluster.policy_budgets_rpc c ~src:"h0" ~iid:"no-such" (fun r -> missing := Some r);
  Cluster.run c;
  check "unknown iid is an error" true
    (match !missing with Some (Error _) -> true | _ -> false)

let test_supply_chain_on_cluster () =
  (* the integration case study runs unchanged when sharded *)
  let c = Cluster.make ~engines:[ "e1"; "e2" ] () in
  Supply_chain.register ~scenario:Supply_chain.smooth (Cluster.registry c);
  let placed =
    List.init 4 (fun _ ->
        must
          (Cluster.launch c ~script:Supply_chain.script ~root:Supply_chain.root
             ~inputs:Supply_chain.inputs))
  in
  Cluster.run c;
  List.iter
    (fun (iid, _) -> check (iid ^ " fulfilled") true (is_done (Cluster.status c iid)))
    placed;
  check "both shards took work" true
    (List.for_all (fun (_, n) -> n = 2) (Cluster.per_engine_instances c))

let () =
  Alcotest.run "cluster"
    [
      ( "placement",
        [
          Alcotest.test_case "round robin + routing" `Quick test_round_robin_placement_and_routing;
          Alcotest.test_case "hash deterministic" `Quick test_hash_placement_deterministic;
          Alcotest.test_case "duplicate iid rejected" `Quick test_duplicate_iid_rejected;
        ] );
      ( "directory",
        [ Alcotest.test_case "owner from any node" `Quick test_directory_answers_from_any_node ] );
      ( "cohosting",
        [ Alcotest.test_case "shared host, two engines" `Quick test_shared_host_serves_both_engines ] );
      ( "faults",
        [
          Alcotest.test_case "shard crash recovery isolated" `Quick
            test_shard_crash_recovery_isolated;
          Alcotest.test_case "launch into down engine refused" `Quick
            test_launch_into_down_engine_refused;
          Alcotest.test_case "placement retry fenced by an engine crash" `Quick
            test_placement_retry_fenced_by_engine_crash;
          Alcotest.test_case "supply chain sharded" `Quick test_supply_chain_on_cluster;
        ] );
      ( "replicated",
        [
          Alcotest.test_case "leader killed mid-launch" `Quick
            test_replicated_leader_kill_mid_launch;
        ] );
      ( "admin",
        [
          Alcotest.test_case "policy budgets over rpc" `Quick test_policy_budgets_over_rpc;
        ] );
    ]
