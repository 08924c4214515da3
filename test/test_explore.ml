(* Tests for the fault-exploration subsystem: decision-point harvesting,
   plan validation, the oracle battery, the shrinker, the pinned
   regression schedules ported from the retired bin/fault_grid.ml, and a
   small end-to-end exploration. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- decision harvesting --- *)

let test_decision_points_harvested () =
  let c = Decision.collector () in
  let _obs = Scenario.chain.Scenario.sc_run [] (Some c) in
  let pts = Decision.points c in
  check "a healthy crop of points" true (List.length pts > 20);
  let kinds = List.map fst (Decision.by_kind pts) in
  List.iter
    (fun k -> check ("kind " ^ k ^ " harvested") true (List.mem k kinds))
    [ "commit"; "dispatch"; "launch"; "conclude" ];
  check "an rpc protocol boundary appears" true
    (List.exists (fun k -> contains ~sub:"rpc:" k) kinds);
  check "remote dispatch names its peer" true
    (List.exists (fun p -> p.Decision.p_kind = "dispatch" && p.Decision.p_peer = Some "h1") pts);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Decision.p_at <= b.Decision.p_at && sorted rest
    | _ -> true
  in
  check "points sorted by time" true (sorted pts);
  check "makespan positive" true (Decision.makespan c > 0)

let test_classify_filters_noise () =
  let some ev = Decision.classify ~src:"n0" ev <> None in
  check "aborted txns are not decision points" false
    (some (Event.Txn_resolved { txid = "t1"; committed = false }));
  check "commits are" true (some (Event.Txn_resolved { txid = "t1"; committed = true }));
  check "non-protocol rpc ignored" false
    (some (Event.Rpc_sent { src = "a"; dst = "b"; service = "gossip" }));
  (match Decision.classify ~src:"a" (Event.Rpc_sent { src = "a"; dst = "b"; service = "tx.prepare" }) with
  | Some ("rpc:tx.prepare", _, Some "b") -> ()
  | _ -> Alcotest.fail "tx rpc should classify with its peer");
  check "retries are not decision points" false
    (some (Event.Rpc_retried { src = "a"; dst = "b"; service = "tx.prepare" }))

(* --- plan validation (Fault.validate / Testbed.apply_faults) --- *)

let test_plan_validation () =
  let nodes = [ "n0"; "h1" ] in
  let ok plan = Fault.validate ~nodes plan = Ok () in
  check "well-formed crash/restart" true
    (ok (Fault.crash_restart ~node:"n0" ~at:10 ~down_for:5));
  check "well-formed even when listed out of order" true
    (ok [ (15, Fault.Restart "n0"); (10, Fault.Crash "n0") ]);
  check "unknown crash target rejected" false (ok [ (0, Fault.Crash "ghost") ]);
  check "restart of never-crashed node rejected" false (ok [ (0, Fault.Restart "n0") ]);
  check "double crash without restart rejected" false
    (ok [ (0, Fault.Crash "n0"); (5, Fault.Crash "n0") ]);
  check "self-partition rejected" false (ok [ (0, Fault.Partition_on ("n0", "n0")) ]);
  check "partition with unknown peer rejected" false
    (ok [ (0, Fault.Partition_on ("n0", "ghost")) ]);
  check "partition both known is fine" true
    (ok (Fault.partition ~a:"n0" ~b:"h1" ~at:3 ~heal_after:7))

let test_testbed_rejects_bad_plan () =
  let tb = Testbed.make () in
  let raises plan =
    match Testbed.apply_faults tb plan with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check "unknown node raises" true (raises [ (0, Fault.Crash "ghost") ]);
  check "unpaired restart raises" true (raises [ (0, Fault.Restart "n0") ]);
  Testbed.apply_faults tb (Fault.crash_restart ~node:"n0" ~at:(Sim.ms 1) ~down_for:(Sim.ms 1))

(* --- oracles --- *)

let reference () = Scenario.chain.Scenario.sc_run [] None

let test_oracles_pass_on_reference () =
  let obs = reference () in
  let verdicts = Oracle.judge ~reference:obs obs in
  check_int "eight oracles" 8 (List.length verdicts);
  List.iter
    (fun v -> check ("oracle " ^ v.Oracle.v_oracle ^ " passes") true v.Oracle.v_ok)
    verdicts;
  check "reference has effects" true (obs.Oracle.o_effects <> []);
  check "reference drained" true obs.Oracle.o_drained

let test_oracles_flag_divergence () =
  let obs = reference () in
  let failing o tampered =
    List.exists
      (fun v -> v.Oracle.v_oracle = o && not v.Oracle.v_ok)
      (Oracle.judge ~reference:obs tampered)
  in
  check "lost instance flagged" true
    (failing "outcome-equivalence" { obs with Oracle.o_statuses = [] });
  check "duplicated effect flagged by exactly-once" true
    (failing "exactly-once"
       { obs with Oracle.o_effects = List.map (fun (k, n) -> (k, n + 1)) obs.Oracle.o_effects });
  check "duplicated effect flagged by equivalence" true
    (failing "effect-equivalence"
       { obs with Oracle.o_effects = List.map (fun (k, n) -> (k, n + 1)) obs.Oracle.o_effects });
  check "prepared leftovers flagged" true
    (failing "no-stuck-transactions" { obs with Oracle.o_prepared = [ ("n0", 1) ] });
  check "undrained run flagged" true
    (failing "no-stuck-transactions" { obs with Oracle.o_drained = false });
  check "held locks flagged" true
    (failing "no-orphaned-locks" { obs with Oracle.o_locks = [ ("h1", 2) ] });
  check "directory drift flagged" true
    (failing "directory-consistency"
       { obs with Oracle.o_directory = [ ("wf-1", "e1") ]; o_owned = [] })

let test_effects_from_durable_history () =
  Alcotest.(check (list string))
    "complete rows keyed by iid/path"
    [ "wf-1/chain/s1"; "wf-1/chain" ]
    (Oracle.effects_of_history
       [
         (1, "launch", "wf-1 root=chain");
         (2, "complete", "chain/s1 -> out");
         (3, "instance", "wf-1 done(finished)");
         (4, "complete", "chain -> finished");
       ]
       ~iid:"wf-1")

(* --- shrinking --- *)

let test_units_keep_pairs_together () =
  let plan =
    Fault.(
      crash_restart ~node:"a" ~at:10 ~down_for:5
      @+ partition ~a:"a" ~b:"b" ~at:20 ~heal_after:5
      @+ [ (50, Crash "b") ])
  in
  let us = Shrink.units plan in
  check_int "three units" 3 (List.length us);
  List.iter
    (fun u ->
      match u with
      | [ (_, Fault.Crash n); (_, Fault.Restart n') ] ->
        check "crash paired with its restart" true (n = n')
      | [ (_, Fault.Partition_on _); (_, Fault.Partition_off _) ] -> ()
      | [ (_, Fault.Crash "b") ] -> ()
      | _ -> Alcotest.fail "unexpected unit shape")
    us;
  Alcotest.(check int)
    "flattening units restores the plan" (List.length plan)
    (List.length (Shrink.plan_of us))

let test_minimize_to_culprit_unit () =
  (* the predicate only cares about node [a]'s crash: everything else
     must be shrunk away, and what remains is a valid 2-action plan *)
  let fails plan =
    List.exists (function _, Fault.Crash "a" -> true | _ -> false) plan
  in
  let plan =
    Fault.(
      crash_restart ~node:"b" ~at:1 ~down_for:3
      @+ crash_restart ~node:"a" ~at:10 ~down_for:5
      @+ partition ~a:"a" ~b:"b" ~at:20 ~heal_after:5
      @+ crash_restart ~node:"b" ~at:40 ~down_for:3)
  in
  let minimal, runs = Shrink.minimize ~fails plan in
  Alcotest.(check (list (pair int bool)))
    "only the culprit crash/restart survives"
    [ (10, true); (15, false) ]
    (List.map
       (fun (at, a) -> (at, match a with Fault.Crash _ -> true | _ -> false))
       minimal);
  check "still well-formed" true (Fault.validate ~nodes:[ "a"; "b" ] minimal = Ok ());
  check "bounded effort" true (runs <= 64)

let test_minimize_respects_run_cap () =
  let calls = ref 0 in
  let fails _ =
    incr calls;
    true
  in
  let plan =
    List.concat
      (List.init 10 (fun i ->
           Fault.crash_restart ~node:"a" ~at:(i * 100) ~down_for:10))
  in
  let _minimal, runs = Shrink.minimize ~max_runs:5 ~fails plan in
  check "stopped at the cap" true (runs <= 5 && !calls <= 5)

(* --- pinned regression schedules (ported from bin/fault_grid.ml) --- *)

let count_effects rows =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (_, kind, detail) ->
      if kind = "complete" then begin
        let path =
          match String.index_opt detail ' ' with
          | Some i -> String.sub detail 0 i
          | None -> detail
        in
        Hashtbl.replace tally path (1 + Option.value ~default:0 (Hashtbl.find_opt tally path))
      end)
    rows;
  tally

(* Every transaction an engine starts must resolve on the local
   one-phase lane (the only one-phase lane): as many one-phase commits
   as resolutions, and no engine node sends a prepare message. Recovery
   rests on it (Dispatch.persist): at a restart a launch is in the store
   or lost, never still deciding. *)
type lanes = { mutable local : int; mutable resolved : int; mutable wire : string list }

let watch_lanes sim ~engines =
  let l = { local = 0; resolved = 0; wire = [] } in
  Event.subscribe (Sim.events sim) (fun ~at:_ ~src ev ->
      if List.mem src engines then
        match ev with
        | Event.Txn_one_phase _ -> l.local <- l.local + 1
        | Event.Txn_resolved _ -> l.resolved <- l.resolved + 1
        | Event.Rpc_sent { service; _ } when service = Txrecord.service_prepare ->
          l.wire <- service :: l.wire
        | _ -> ());
  l

let check_local_lane name l =
  check (name ^ ": engine transactions ran") true (l.resolved > 0);
  check_int (name ^ ": every resolution is a local one-phase commit") l.resolved l.local;
  Alcotest.(check (list string)) (name ^ ": no engine sends a commit message") [] l.wire

(* what a pinned run published, in virtual time *)
type pinned = { relaunched_at : Sim.time list; concluded_at : Sim.time list; lanes : lanes }

let run_pinned plan =
  let tb = Testbed.make ~engine_config:Scenario.engine_config () in
  let relaunched = ref [] and concluded = ref [] in
  Event.subscribe (Sim.events tb.Testbed.sim) (fun ~at ~src:_ ev ->
      match ev with
      | Event.Wf_relaunched _ -> relaunched := at :: !relaunched
      | Event.Wf_concluded _ -> concluded := at :: !concluded
      | _ -> ());
  let lanes = watch_lanes tb.Testbed.sim ~engines:[ "n0" ] in
  Workloads.register ~work:(Sim.ms 5) tb.Testbed.registry;
  Testbed.apply_faults tb plan;
  let script, root = Workloads.chain ~n:6 in
  match
    Testbed.launch_and_run ~until:Scenario.horizon tb ~script ~root
      ~inputs:Workloads.seed_inputs
  with
  | Ok (iid, Wstate.Wf_done { output = "finished"; _ }) ->
    let tally = count_effects (Engine.history tb.Testbed.engine iid) in
    check "effects recorded" true (Hashtbl.length tally > 0);
    Hashtbl.iter
      (fun path n -> check_int ("exactly once: " ^ path) 1 n)
      tally;
    Alcotest.(check (list string))
      "nothing left prepared" []
      (Participant.prepared_txids (Testbed.participant tb "n0"));
    check_int "no orphaned locks" 0 (Participant.locks_held (Testbed.participant tb "n0"));
    { relaunched_at = List.rev !relaunched; concluded_at = List.rev !concluded; lanes }
  | Ok (_, s) -> Alcotest.failf "unexpected status %a" Wstate.pp_status s
  | Error e -> Alcotest.fail e

(* A crash in the same instant as the launch (the fault, planted at
   setup, wins the same-time tie) loses the launch's persist flush. *)
let orphan_race = Fault.crash_restart ~node:"n0" ~at:0 ~down_for:(Sim.ms 10)

(* Back-to-back crash/restart cycles mid-run (fault_grid's pair grid):
   the second crash lands while recovery work from the first is still
   settling. *)
let crash_pair =
  Fault.(
    crash_restart ~node:"n0" ~at:(Sim.ms 7) ~down_for:(Sim.ms 10)
    @+ crash_restart ~node:"n0" ~at:(Sim.ms 20) ~down_for:(Sim.ms 10))

(* The orphan race, then a second crash at the instant of the first
   recovery, before its persist flush runs. *)
let crash_at_recovery =
  Fault.(
    orphan_race @+ crash_restart ~node:"n0" ~at:(Sim.ms 10) ~down_for:(Sim.ms 10))

let test_pinned_orphan_relaunched_at_recovery () =
  (* The schedule that found the launch-transaction/crash race fixed by
     relaunching lost launches at recovery: recovery re-persists the
     orphan at the restart, and the chain's six 5 ms steps run to exactly-once
     completion from there. *)
  let r = run_pinned orphan_race in
  Alcotest.(check (list int)) "relaunched at the restart" [ Sim.ms 10 ] r.relaunched_at;
  Alcotest.(check (list int)) "concluded" [ Sim.ms 40 ] r.concluded_at

let test_pinned_crash_at_recovery_instant () =
  (* the relaunch's rows die in the second crash's cleared batch; the
     second recovery launches the orphan again *)
  let r = run_pinned crash_at_recovery in
  Alcotest.(check (list int)) "relaunched at each restart" [ Sim.ms 10; Sim.ms 20 ]
    r.relaunched_at;
  Alcotest.(check (list int)) "concluded" [ Sim.ms 50 ] r.concluded_at

let test_pinned_crash_pair () =
  let _ = run_pinned crash_pair in
  ()

let test_engine_commits_stay_local () =
  List.iter
    (fun (name, plan) -> check_local_lane name (run_pinned plan).lanes)
    [ ("orphan race", orphan_race); ("crash pair", crash_pair);
      ("crash at recovery", crash_at_recovery) ];
  (* three engines sharing a fabric, one of which crashes and recovers
     mid-run *)
  let engines = [ "e1"; "e2"; "e3" ] in
  let c =
    Cluster.make ~engines
      ~engine_config:{ Engine.default_config with Engine.default_deadline = Sim.ms 150 } ()
  in
  Workloads.register ~work:(Sim.ms 25) (Cluster.registry c);
  let lanes = watch_lanes (Cluster.sim c) ~engines in
  let script, root = Workloads.chain ~n:4 in
  let placed =
    List.init 6 (fun _ ->
        match Cluster.launch c ~script ~root ~inputs:Workloads.seed_inputs with
        | Ok (iid, _) -> iid
        | Error e -> Alcotest.fail e)
  in
  Cluster.apply_faults c (Fault.crash_restart ~node:"e2" ~at:(Sim.ms 40) ~down_for:(Sim.ms 100));
  Cluster.run c;
  List.iter
    (fun iid ->
      check (iid ^ " done") true
        (match Cluster.status c iid with Some (Wstate.Wf_done _) -> true | _ -> false))
    placed;
  check "e2 recovered" true (Engine.recoveries_total (Cluster.engine c "e2") >= 1);
  check_local_lane "cluster" lanes

(* --- declarative-recovery conformance (pinned) --- *)

(* Each recovery construct holds up under a crash and under a partition:
   the scenario's own judge (stock battery + policy conformance) must
   return only passing verdicts. *)
let conformance_under sc =
  let reference = sc.Scenario.sc_run [] None in
  let judge name plan =
    let obs = sc.Scenario.sc_run plan None in
    let verdicts = sc.Scenario.sc_judge ~reference obs in
    check_int (sc.Scenario.sc_name ^ " battery includes conformance") 9 (List.length verdicts);
    check
      (sc.Scenario.sc_name ^ " conformance verdict present") true
      (List.exists (fun v -> v.Oracle.v_oracle = "policy-conformance") verdicts);
    List.iter
      (fun v ->
        if not v.Oracle.v_ok then
          Alcotest.failf "%s under %s: %s failed: %s" sc.Scenario.sc_name name v.Oracle.v_oracle
            v.Oracle.v_detail)
      verdicts
  in
  judge "crash" (Fault.crash_restart ~node:"h1" ~at:(Sim.ms 20) ~down_for:(Sim.ms 40));
  judge "partition" (Fault.partition ~a:"n0" ~b:"h1" ~at:(Sim.ms 20) ~heal_after:(Sim.ms 120))

let test_recovery_conformance_retry () = conformance_under Scenario.recovery_retry

let test_recovery_conformance_timeout () = conformance_under Scenario.recovery_timeout

let test_recovery_conformance_alternative () = conformance_under Scenario.recovery_alternative

let test_recovery_conformance_compensate () = conformance_under Scenario.recovery_compensate

(* --- replicated repository (pinned) --- *)

(* The acceptance schedule spelled out in the issue: kill the
   repository leader mid-launch — no placement may be lost, no task
   effect duplicated, and the routed owner lookups must still land on
   the recorded owners. Judged by the stock battery, which now includes
   log-linearizability and routed-consistency. *)
let test_pinned_repo_leader_crash () =
  let sc = Scenario.repo_failover in
  let reference = sc.Scenario.sc_run [] None in
  check "reference drained" true reference.Oracle.o_drained;
  check "replica logs observed" true (List.length reference.Oracle.o_logs = 3);
  check "routed owners observed" true (reference.Oracle.o_routed <> []);
  check "placements survive" true (List.length reference.Oracle.o_placements = 6);
  let judge name plan =
    let obs = sc.Scenario.sc_run plan None in
    List.iter
      (fun v ->
        if not v.Oracle.v_ok then
          Alcotest.failf "repo-failover under %s: %s failed: %s" name v.Oracle.v_oracle
            v.Oracle.v_detail)
      (sc.Scenario.sc_judge ~reference obs)
  in
  (* the bootstrap leader dies while the first placement writes are in
     flight, then while it is down a second fault partitions a survivor *)
  judge "leader crash mid-launch"
    (Fault.crash_restart ~node:"repo1" ~at:(Sim.ms 1) ~down_for:(Sim.ms 60));
  judge "leader partition"
    (Fault.partition ~a:"repo1" ~b:"repo2" ~at:(Sim.ms 1) ~heal_after:(Sim.ms 80));
  judge "follower crash"
    (Fault.crash_restart ~node:"repo3" ~at:(Sim.ms 2) ~down_for:(Sim.ms 40))

(* The scripted election scenario must put consensus decision points
   into its own reference run — that is what lets schedules aim faults
   inside the election window. *)
let test_repo_election_reference_has_election () =
  let sc = Scenario.repo_election in
  let c = Decision.collector () in
  let obs = sc.Scenario.sc_run [] (Some c) in
  check "reference drained" true obs.Oracle.o_drained;
  let kinds = List.map fst (Decision.by_kind (Decision.points c)) in
  check "election harvested" true (List.mem "election" kinds);
  check "elected harvested" true (List.mem "elected" kinds);
  check "consensus traffic harvested" true
    (List.exists (fun k -> contains ~sub:"cons." k) kinds)

(* The oracle has teeth: hold each scenario's fault-free run against a
   deliberately mis-specified policy and it must object. *)
let conformance_fails sc spec ~expect =
  let obs = sc.Scenario.sc_run [] None in
  let v = Oracle.policy_conformance ~specs:[ spec ] obs in
  if v.Oracle.v_ok then
    Alcotest.failf "%s: mis-specified policy went unnoticed (%s)" sc.Scenario.sc_name expect;
  check (sc.Scenario.sc_name ^ " names the violation") true (contains ~sub:expect v.Oracle.v_detail)

let mis_spec ?(codes = []) ?substitute ?compensate ?abort_output ~max_attempts () =
  {
    Oracle.ps_path = "flow/work";
    ps_max_attempts = max_attempts;
    ps_codes = codes;
    ps_substitute = substitute;
    ps_compensate = compensate;
    ps_abort_output = abort_output;
  }

let test_oracle_catches_budget_overrun () =
  (* claim a budget of 2 attempts: the third attempt that actually
     succeeds becomes a violation *)
  conformance_fails Scenario.recovery_retry
    (mis_spec ~codes:[ "r.flaky" ] ~max_attempts:2 ())
    ~expect:"attempt"

let test_oracle_catches_undeclared_substitute () =
  (* omit the substitute from the spec: the watchdog's jump to r.sub is
     an unauthorised code *)
  conformance_fails Scenario.recovery_timeout
    (mis_spec ~codes:[ "r.hang" ] ~max_attempts:400 ())
    ~expect:"r.sub"

let test_oracle_catches_unranked_alternative () =
  (* omit r.alive from the ranked codes: the failure-driven band advance
     lands on a code the spec never allowed *)
  conformance_fails Scenario.recovery_alternative
    (mis_spec ~codes:[ "r.dead" ] ~max_attempts:10 ())
    ~expect:"r.alive"

let test_oracle_catches_unexpected_compensation () =
  (* a spec that declares no abort outcome expects zero compensations;
     the durable policy-compensate row is a violation *)
  conformance_fails Scenario.recovery_compensate
    (mis_spec ~codes:[ "r.abort" ] ~compensate:"undo" ~max_attempts:200 ())
    ~expect:"compensat"

let test_oracle_catches_wrong_compensation_target () =
  conformance_fails Scenario.recovery_compensate
    (mis_spec ~codes:[ "r.abort" ] ~compensate:"other" ~abort_output:"failed" ~max_attempts:200 ())
    ~expect:"undo"

(* --- end to end --- *)

let test_explore_chain_end_to_end () =
  let budget =
    {
      Explorer.smoke_budget with
      Explorer.b_single_cap = 8;
      b_pair_cap = 4;
      b_partition_cap = 4;
      b_combo_cap = 2;
      b_soak = 2;
    }
  in
  let r = Explorer.explore_scenario budget Scenario.chain in
  check "a real batch of schedules ran" true (r.Explorer.r_schedules >= 10);
  check_int "no failures on the healthy engine" 0 (List.length r.Explorer.r_failures);
  check "decision points counted" true (r.Explorer.r_points > 20);
  let report = { Explorer.rp_mode = "test"; rp_scenarios = [ r ] } in
  check_int "totals line up" r.Explorer.r_schedules (Explorer.total_schedules report);
  let json = Explorer.to_json report in
  check "json carries the schema tag" true (contains ~sub:"rdal-explore/1" json);
  check "json carries the scenario" true (contains ~sub:"\"name\": \"chain\"" json);
  check "json reports zero failures" true (contains ~sub:"\"failures\": 0" json)

let test_judge_plan_flags_divergence () =
  (* end-to-end wiring of run + judge: against a tampered reference even
     the empty schedule must be flagged *)
  let obs = reference () in
  check "healthy run passes" true
    (Explorer.judge_plan Scenario.chain ~reference:obs [] = []);
  let tampered = { obs with Oracle.o_statuses = [] } in
  check "divergence flagged" true
    (Explorer.judge_plan Scenario.chain ~reference:tampered [] <> [])

let test_generated_schedules_are_valid () =
  let c = Decision.collector () in
  let _ = Scenario.chain.Scenario.sc_run [] (Some c) in
  let pts = Decision.points c in
  let scheds =
    Explorer.schedules Explorer.smoke_budget Scenario.chain pts
      ~makespan:(Decision.makespan c)
  in
  check "schedules generated" true (List.length scheds > 50);
  List.iter
    (fun s ->
      match Fault.validate ~nodes:Scenario.chain.Scenario.sc_nodes s.Explorer.s_plan with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid generated plan (%s): %s" s.Explorer.s_kind e)
    scheds

let () =
  Alcotest.run "explore"
    [
      ( "decision",
        [
          Alcotest.test_case "harvest from reference run" `Quick test_decision_points_harvested;
          Alcotest.test_case "classification filter" `Quick test_classify_filters_noise;
        ] );
      ( "validation",
        [
          Alcotest.test_case "Fault.validate" `Quick test_plan_validation;
          Alcotest.test_case "Testbed.apply_faults rejects" `Quick test_testbed_rejects_bad_plan;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "pass on reference" `Quick test_oracles_pass_on_reference;
          Alcotest.test_case "flag divergence" `Quick test_oracles_flag_divergence;
          Alcotest.test_case "effects from durable history" `Quick test_effects_from_durable_history;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "unit pairing" `Quick test_units_keep_pairs_together;
          Alcotest.test_case "minimize to culprit" `Quick test_minimize_to_culprit_unit;
          Alcotest.test_case "run cap" `Quick test_minimize_respects_run_cap;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "orphan relaunched at recovery" `Quick
            test_pinned_orphan_relaunched_at_recovery;
          Alcotest.test_case "crash at the recovery instant" `Quick
            test_pinned_crash_at_recovery_instant;
          Alcotest.test_case "crash pair" `Quick test_pinned_crash_pair;
          Alcotest.test_case "engine commits stay on the local lane" `Quick
            test_engine_commits_stay_local;
          Alcotest.test_case "repo leader crash" `Quick test_pinned_repo_leader_crash;
          Alcotest.test_case "repo election in reference" `Quick
            test_repo_election_reference_has_election;
        ] );
      ( "recovery-policy",
        [
          Alcotest.test_case "retry conforms under faults" `Quick test_recovery_conformance_retry;
          Alcotest.test_case "timeout conforms under faults" `Quick test_recovery_conformance_timeout;
          Alcotest.test_case "alternative conforms under faults" `Quick
            test_recovery_conformance_alternative;
          Alcotest.test_case "compensate conforms under faults" `Quick
            test_recovery_conformance_compensate;
          Alcotest.test_case "catches budget overrun" `Quick test_oracle_catches_budget_overrun;
          Alcotest.test_case "catches undeclared substitute" `Quick
            test_oracle_catches_undeclared_substitute;
          Alcotest.test_case "catches unranked alternative" `Quick
            test_oracle_catches_unranked_alternative;
          Alcotest.test_case "catches unexpected compensation" `Quick
            test_oracle_catches_unexpected_compensation;
          Alcotest.test_case "catches wrong compensation target" `Quick
            test_oracle_catches_wrong_compensation_target;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "explore the chain" `Quick test_explore_chain_end_to_end;
          Alcotest.test_case "judge wiring" `Quick test_judge_plan_flags_divergence;
          Alcotest.test_case "generated plans valid" `Quick test_generated_schedules_are_valid;
        ] );
    ]
