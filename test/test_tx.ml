(* Tests for the transaction layer: locking, atomic commitment across
   nodes, nested transactions, and crash recovery of both participants
   and coordinators. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str_opt = Alcotest.(check (option string))

(* a registry counting the events the cluster publishes from now on *)
let metrics c =
  let m = Metrics.create () in
  Metrics.attach m (Sim.events c.Harness.sim);
  m

open Txn

(* --- Lock table --- *)

let test_lock_read_sharing () =
  let l = Lock.create () in
  check "r1" true (Lock.read l ~key:"k" ~txid:"t1" = Lock.Granted);
  check "r2 shares" true (Lock.read l ~key:"k" ~txid:"t2" = Lock.Granted);
  check "writer blocked" true (match Lock.write l ~key:"k" ~txid:"t3" with Lock.Conflict _ -> true | _ -> false)

let test_lock_write_exclusive () =
  let l = Lock.create () in
  check "w1" true (Lock.write l ~key:"k" ~txid:"t1" = Lock.Granted);
  check "w2 conflicts" true (Lock.write l ~key:"k" ~txid:"t2" = Lock.Conflict "t1");
  check "r2 conflicts" true (Lock.read l ~key:"k" ~txid:"t2" = Lock.Conflict "t1");
  check "owner rereads" true (Lock.read l ~key:"k" ~txid:"t1" = Lock.Granted)

let test_lock_upgrade () =
  let l = Lock.create () in
  check "read" true (Lock.read l ~key:"k" ~txid:"t1" = Lock.Granted);
  check "sole reader upgrades" true (Lock.write l ~key:"k" ~txid:"t1" = Lock.Granted);
  check "holds write" true (Lock.holds_write l ~key:"k" ~txid:"t1");
  ignore (Lock.read l ~key:"j" ~txid:"t1");
  ignore (Lock.read l ~key:"j" ~txid:"t2");
  check "shared key cannot upgrade" true
    (match Lock.write l ~key:"j" ~txid:"t1" with Lock.Conflict _ -> true | _ -> false)

let test_lock_release_all () =
  let l = Lock.create () in
  ignore (Lock.write l ~key:"a" ~txid:"t1");
  ignore (Lock.read l ~key:"b" ~txid:"t1");
  ignore (Lock.read l ~key:"b" ~txid:"t2");
  Lock.release_all l ~txid:"t1";
  Alcotest.(check (list string)) "t1 holds nothing" [] (Lock.held_keys l ~txid:"t1");
  Alcotest.(check (list string)) "t2 keeps its read" [ "b" ] (Lock.held_keys l ~txid:"t2");
  check "a is free for others" true (Lock.write l ~key:"a" ~txid:"t3" = Lock.Granted);
  (* a key read twice, upgraded and read again is held, and released,
     once *)
  ignore (Lock.read l ~key:"c" ~txid:"t4");
  ignore (Lock.read l ~key:"c" ~txid:"t4");
  ignore (Lock.write l ~key:"c" ~txid:"t4");
  ignore (Lock.read l ~key:"c" ~txid:"t4");
  Alcotest.(check (list string)) "t4 holds c once" [ "c" ] (Lock.held_keys l ~txid:"t4");
  List.iter (fun txid -> Lock.release_all l ~txid) [ "t2"; "t3"; "t4" ];
  Alcotest.(check int) "table drained" 0 (Lock.held_total l)

(* --- Single-node transactions --- *)

let test_commit_visible () =
  let c = Harness.cluster [ "a" ] in
  let mgr = Harness.manager c "a" in
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         write t ~node:"a" ~key:"x" ~value:"42";
         return ()));
  check_str_opt "committed value" (Some "42")
    (Participant.committed_value (Harness.participant c "a") ~key:"x")

let test_read_your_writes () =
  let c = Harness.cluster [ "a" ] in
  let mgr = Harness.manager c "a" in
  let seen =
    Harness.exec_ok c
      (Txn.run mgr (fun t ->
           write t ~node:"a" ~key:"x" ~value:"v1";
           let* v = read t ~node:"a" ~key:"x" in
           return v))
  in
  check_str_opt "buffered write visible" (Some "v1") seen

let test_abort_discards () =
  let c = Harness.cluster [ "a" ] in
  let mgr = Harness.manager c "a" in
  let t = Txn.begin_ mgr in
  write t ~node:"a" ~key:"x" ~value:"ghost";
  Txn.abort t;
  Harness.run c;
  check_str_opt "nothing committed" None
    (Participant.committed_value (Harness.participant c "a") ~key:"x")

let test_conflict_and_retry () =
  let c = Harness.cluster [ "a" ] in
  let mgr = Harness.manager c "a" in
  (* t1 write-locks x via prepare by committing slowly? Simpler: t1 reads
     x and stays open; t2's commit (write x) must conflict at prepare,
     then succeed after t1 aborts. *)
  let t1 = Txn.begin_ mgr in
  let got_t1_read = ref false in
  (read t1 ~node:"a" ~key:"x") (fun r -> got_t1_read := (r = Ok None));
  Harness.run c;
  check "t1 read-locked x" true !got_t1_read;
  let t2_result = ref None in
  (Txn.run mgr ~max_attempts:2 (fun t2 ->
       write t2 ~node:"a" ~key:"x" ~value:"two";
       return ()))
    (fun r -> t2_result := Some r);
  Harness.run c;
  check "t2 blocked by t1's read lock" true
    (match !t2_result with Some (Error (`Conflict _)) -> true | _ -> false);
  Txn.abort t1;
  Harness.exec_ok c
    (Txn.run mgr (fun t3 ->
         write t3 ~node:"a" ~key:"x" ~value:"three";
         return ()));
  check_str_opt "after t1 abort, writes go through" (Some "three")
    (Participant.committed_value (Harness.participant c "a") ~key:"x")

(* --- Multi-node atomicity --- *)

let test_two_node_commit () =
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" in
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         write t ~node:"a" ~key:"x" ~value:"1";
         write t ~node:"b" ~key:"y" ~value:"2";
         return ()));
  check_str_opt "a applied" (Some "1") (Participant.committed_value (Harness.participant c "a") ~key:"x");
  check_str_opt "b applied" (Some "2") (Participant.committed_value (Harness.participant c "b") ~key:"y")

let test_atomicity_under_conflict () =
  (* b's key is write-locked by another transaction: the 2PC must abort
     and NEITHER node may apply anything. *)
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr_b = Harness.manager c "b" in
  let blocker = Txn.begin_ mgr_b in
  let ok = ref false in
  (read blocker ~node:"b" ~key:"y") (fun r -> ok := (r = Ok None));
  Harness.run c;
  check "blocker locked y" true !ok;
  let mgr_a = Harness.manager c "a" in
  let result =
    Harness.exec c
      (Txn.run mgr_a ~max_attempts:1 (fun t ->
           write t ~node:"a" ~key:"x" ~value:"1";
           write t ~node:"b" ~key:"y" ~value:"2";
           return ()))
  in
  check "aborted" true (match result with Error (`Conflict _) -> true | _ -> false);
  check_str_opt "a did not apply" None
    (Participant.committed_value (Harness.participant c "a") ~key:"x");
  check_str_opt "b did not apply" None
    (Participant.committed_value (Harness.participant c "b") ~key:"y")

let test_isolation_no_dirty_read () =
  let c = Harness.cluster [ "a" ] in
  let mgr = Harness.manager c "a" in
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         write t ~node:"a" ~key:"x" ~value:"committed";
         return ()));
  let t1 = Txn.begin_ mgr in
  write t1 ~node:"a" ~key:"x" ~value:"uncommitted";
  (* t1 has not prepared: its write is buffered at the coordinator, so a
     reader sees the committed value (no dirty reads by construction). *)
  let seen =
    Harness.exec_ok c
      (Txn.run mgr (fun t2 ->
           let* v = read t2 ~node:"a" ~key:"x" in
           return v))
  in
  check_str_opt "no dirty read" (Some "committed") seen;
  Txn.abort t1

(* --- Nested transactions --- *)

let test_nested_commit_merges () =
  let c = Harness.cluster [ "a" ] in
  let mgr = Harness.manager c "a" in
  Harness.exec_ok c
    (Txn.run mgr (fun top ->
         let child = Txn.begin_child top in
         write child ~node:"a" ~key:"x" ~value:"from-child";
         let* () = Txn.commit child in
         let* v = read top ~node:"a" ~key:"x" in
         check_str_opt "parent sees child's write" (Some "from-child") v;
         return ()));
  check_str_opt "committed at top" (Some "from-child")
    (Participant.committed_value (Harness.participant c "a") ~key:"x")

let test_nested_abort_discards_child_only () =
  let c = Harness.cluster [ "a" ] in
  let mgr = Harness.manager c "a" in
  Harness.exec_ok c
    (Txn.run mgr (fun top ->
         write top ~node:"a" ~key:"keep" ~value:"yes";
         let child = Txn.begin_child top in
         write child ~node:"a" ~key:"drop" ~value:"no";
         Txn.abort child;
         return ()));
  let p = Harness.participant c "a" in
  check_str_opt "parent write survives" (Some "yes") (Participant.committed_value p ~key:"keep");
  check_str_opt "child write gone" None (Participant.committed_value p ~key:"drop")

let test_nested_child_wins_merge () =
  let c = Harness.cluster [ "a" ] in
  let mgr = Harness.manager c "a" in
  Harness.exec_ok c
    (Txn.run mgr (fun top ->
         write top ~node:"a" ~key:"x" ~value:"parent";
         let child = Txn.begin_child top in
         write child ~node:"a" ~key:"x" ~value:"child";
         let* () = Txn.commit child in
         return ()));
  check_str_opt "child's later write wins" (Some "child")
    (Participant.committed_value (Harness.participant c "a") ~key:"x")

(* --- Commit fast lanes --- *)

let test_one_phase_local_no_rpc () =
  (* sole participant = the coordinator's own node: the commit is a
     direct local call — no RPC, no network messages, and nothing kept
     to detect a duplicate, since a direct call cannot repeat *)
  let c = Harness.cluster [ "a" ] in
  let mgr = Harness.manager c "a" in
  let m = metrics c in
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         write t ~node:"a" ~key:"x" ~value:"42";
         return ()));
  check_str_opt "committed" (Some "42")
    (Participant.committed_value (Harness.participant c "a") ~key:"x");
  check_int "no network traffic at all" 0 (Network.sent_total c.Harness.net);
  check_int "no rpc calls" 0 (Metrics.value m "events.rpc-sent");
  check_int "no log record" 0 (Participant.log_length (Harness.participant c "a"));
  check_int "no cached decision" 0 (Participant.decided_count (Harness.participant c "a"));
  check_int "txn.one_phase metric" 1 (Metrics.value m "txn.one_phase")

(* A single writer on another node, the case a one-phase lane would
   serve, commits through 2PC, the only protocol a message-borne commit
   has: one [tx.prepare] and one [tx.commit], both logged at the
   participant, and no one-phase commit. With [~partition] a partition
   opens just as the prepare would cross the a->b link; the RPC layer
   retries through the outage and the commit resolves after the heal
   with its effect applied once, nothing left prepared and no locks. *)
let remote_single_writer ~partition () =
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" in
  let p_b = Harness.participant c "b" in
  let sent = ref [] in
  Event.subscribe (Sim.events c.Harness.sim) (fun ~at:_ ~src:_ -> function
    | Event.Rpc_sent { src = "a"; service; _ } -> sent := service :: !sent
    | _ -> ());
  let m = metrics c in
  if partition then begin
    Network.partition_on c.Harness.net "a" "b";
    ignore
      (Sim.schedule c.Harness.sim ~delay:(Sim.ms 30) (fun () ->
           Network.partition_off c.Harness.net "a" "b"))
  end;
  let t = Txn.begin_ mgr in
  let txid = Txn.txid t in
  write t ~node:"b" ~key:"y" ~value:"v";
  (match Harness.exec c (Txn.commit t) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "remote commit failed: %s" (Txn.error_to_string e));
  check_str_opt "applied at b" (Some "v") (Participant.committed_value p_b ~key:"y");
  Alcotest.(check (list string))
    "one prepare, one commit"
    [ Txrecord.service_prepare; Txrecord.service_commit ]
    (List.rev !sent);
  check_int "no one-phase commit" 0 (Metrics.value m "txn.one_phase");
  check "prepared and committed records at b" true
    (Participant.log p_b
    = [ Txrecord.P_prepared { txid; coordinator = "a"; writes = [ ("y", Some "v") ] };
        Txrecord.P_committed txid ]);
  Alcotest.(check (list string)) "nothing left prepared" [] (Participant.prepared_txids p_b);
  check_int "no orphaned locks" 0 (Participant.locks_held p_b);
  check_int "commit phase finished" 0 (Txn.undecided_commits mgr);
  (* the retired one-phase service was [tx.commit] with a "1" suffix *)
  check "no one-phase service" true
    (Option.is_none (Node.handler (Harness.node c "b") ~service:(Txrecord.service_commit ^ "1")))

let test_one_phase_remote_commit = remote_single_writer ~partition:false
let test_one_phase_through_partition = remote_single_writer ~partition:true

let test_one_phase_refused_on_conflict () =
  (* the local one-phase commit must refuse when the participant's
     locks are taken by a remote reader, and the refusal aborts
     cleanly *)
  let c = Harness.cluster [ "a"; "b" ] in
  let blocker = Txn.begin_ (Harness.manager c "a") in
  let ok = ref false in
  (read blocker ~node:"b" ~key:"y") (fun r -> ok := (r = Ok None));
  Harness.run c;
  check "blocker locked y" true !ok;
  let result =
    Harness.exec c
      (Txn.run (Harness.manager c "b") ~max_attempts:1 (fun t ->
           write t ~node:"b" ~key:"y" ~value:"2";
           return ()))
  in
  check "refused as conflict" true (match result with Error (`Conflict _) -> true | _ -> false);
  check_str_opt "nothing applied" None
    (Participant.committed_value (Harness.participant c "b") ~key:"y");
  Txn.abort blocker;
  Harness.run c;
  Harness.exec_ok c
    (Txn.run (Harness.manager c "b") (fun t ->
         write t ~node:"b" ~key:"y" ~value:"3";
         return ()));
  check_str_opt "unblocked after abort" (Some "3")
    (Participant.committed_value (Harness.participant c "b") ~key:"y")

let test_readonly_txn_elided () =
  (* a pure read-only transaction commits in one validate-and-release
     round: no decision record, no commit fan-out, no participant log *)
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" in
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         write t ~node:"b" ~key:"x" ~value:"seed";
         return ()));
  let log_after_seed = Participant.log_length (Harness.participant c "b") in
  let m = metrics c in
  let seen =
    Harness.exec_ok c
      (Txn.run mgr (fun t ->
           let* v = read t ~node:"b" ~key:"x" in
           return v))
  in
  check_str_opt "read the committed value" (Some "seed") seen;
  check_int "participant elided" 1 (Metrics.value m "txn.readonly_elided");
  check_int "no new participant log record" log_after_seed
    (Participant.log_length (Harness.participant c "b"));
  (* the read locks are gone: an immediate writer must not conflict *)
  Harness.exec_ok c
    (Txn.run (Harness.manager c "b") ~max_attempts:1 (fun t ->
         write t ~node:"b" ~key:"x" ~value:"next";
         return ()));
  check_str_opt "lock released in phase 1" (Some "next")
    (Participant.committed_value (Harness.participant c "b") ~key:"x")

let test_readonly_elision_under_conflict () =
  (* validation must fail when the participant lost the read locks (a
     crash reset its lock table): stale reads cannot commit *)
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" in
  let m = metrics c in
  let t = Txn.begin_ mgr in
  let got = ref false in
  (read t ~node:"b" ~key:"x") (fun r -> got := (r = Ok None));
  Harness.run c;
  check "read acquired its lock" true !got;
  Harness.crash c "b";
  Harness.recover c "b";
  Harness.run c;
  let result = Harness.exec c (Txn.commit t) in
  check "stale read-only commit refused" true
    (match result with Error (`Conflict _) -> true | _ -> false);
  check_int "no elision counted on abort" 0 (Metrics.value m "txn.readonly_elided")

let test_mixed_readonly_elided_from_fanout () =
  (* read one node, write another: the reader votes in phase 1 and is
     excluded from the decision record and the commit push *)
  let c = Harness.cluster [ "a"; "b"; "cc" ] in
  let mgr = Harness.manager c "a" in
  let m = metrics c in
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         write t ~node:"b" ~key:"x" ~value:"seed";
         return ()));
  let b_log = Participant.log_length (Harness.participant c "b") in
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         let* v = read t ~node:"b" ~key:"x" in
         match v with
         | Some s ->
           write t ~node:"cc" ~key:"y" ~value:s;
           return ()
         | None -> fail (`Aborted "seed missing")));
  check_str_opt "writer side committed" (Some "seed")
    (Participant.committed_value (Harness.participant c "cc") ~key:"y");
  check_int "reader elided" 1 (Metrics.value m "txn.readonly_elided");
  check_int "reader logged nothing" b_log (Participant.log_length (Harness.participant c "b"));
  Alcotest.(check (list string))
    "reader holds no prepared state" []
    (Participant.prepared_txids (Harness.participant c "b"))

let test_readonly_elision_through_partition () =
  (* same, for the read-only fast lane: the [tx.prepare-ro] validation
     round is cut off mid-flight; after the heal the commit must elide,
     log nothing, and leave the read locks released *)
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" in
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         write t ~node:"b" ~key:"x" ~value:"seed";
         return ()));
  let p_b = Harness.participant c "b" in
  let log_before = Participant.log_length p_b in
  let m = metrics c in
  let t = Txn.begin_ mgr in
  let got = ref None in
  (read t ~node:"b" ~key:"x") (fun r -> got := Some r);
  Harness.run c;
  check "read completed before the partition" true (!got = Some (Ok (Some "seed")));
  Network.partition_on c.Harness.net "a" "b";
  ignore
    (Sim.schedule c.Harness.sim ~delay:(Sim.ms 30) (fun () ->
         Network.partition_off c.Harness.net "a" "b"));
  (match Harness.exec c (Txn.commit t) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "read-only commit failed: %s" (Txn.error_to_string e));
  check_int "elision resolved through the outage" 1 (Metrics.value m "txn.readonly_elided");
  check_int "still logged nothing" log_before (Participant.log_length p_b);
  check_int "read locks released" 0 (Participant.locks_held p_b);
  (* exactly-once, observable side: an immediate writer is not blocked
     by leftover read locks and sees the unchanged committed value *)
  Harness.exec_ok c
    (Txn.run (Harness.manager c "b") ~max_attempts:1 (fun t ->
         write t ~node:"b" ~key:"x" ~value:"next";
         return ()));
  check_str_opt "writer proceeds after elision" (Some "next")
    (Participant.committed_value p_b ~key:"x")

let test_checkpoint_then_crash_recovers_exact_state () =
  (* Wal.rewrite's crash-atomicity contract seen through the participant:
     a crash right after checkpoint (between the compaction and the next
     append) must recover exactly the compacted state — never a mix of
     old and new log contents *)
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" in
  List.iter
    (fun (k, v) ->
      Harness.exec_ok c
        (Txn.run mgr (fun t ->
             write t ~node:"b" ~key:k ~value:v;
             return ())))
    [ ("x", "1"); ("y", "2"); ("x", "3") ];
  let p_b = Harness.participant c "b" in
  Participant.checkpoint p_b;
  let compacted = Participant.log_length p_b in
  Harness.crash c "b";
  Harness.recover c "b";
  Harness.run c;
  check_str_opt "x survives at its newest value" (Some "3")
    (Participant.committed_value p_b ~key:"x");
  check_str_opt "y survives" (Some "2") (Participant.committed_value p_b ~key:"y");
  check_int "recovered log is the compacted one, not a mix" compacted
    (Participant.log_length p_b);
  Alcotest.(check (list string))
    "nothing prepared after recovery" [] (Participant.prepared_txids p_b);
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         write t ~node:"b" ~key:"z" ~value:"4";
         return ()));
  check_str_opt "writes continue after the recovered checkpoint" (Some "4")
    (Participant.committed_value p_b ~key:"z")

(* --- Crash recovery --- *)

let test_participant_crash_after_prepare_commits_eventually () =
  (* Crash participant b moments after the transaction starts committing;
     the coordinator's commit push retries until b recovers; b's recovery
     re-acquires locks and the status poll finishes the job. *)
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" in
  let result = ref None in
  (Txn.run mgr (fun t ->
       write t ~node:"b" ~key:"y" ~value:"v";
       return ()))
    (fun r -> result := Some r);
  (* let prepare land, then crash b for a while *)
  ignore (Sim.schedule c.Harness.sim ~delay:(Sim.ms 3) (fun () -> Harness.crash c "b"));
  ignore (Sim.schedule c.Harness.sim ~delay:(Sim.ms 200) (fun () -> Harness.recover c "b"));
  Harness.run c;
  check "commit completed" true (!result = Some (Ok ()));
  check_str_opt "applied after recovery" (Some "v")
    (Participant.committed_value (Harness.participant c "b") ~key:"y")

let test_coordinator_crash_before_decision_presumed_abort () =
  (* Two remote participants: the coordinator's crash leaves both
     prepared. *)
  let c = Harness.cluster [ "a"; "b"; "cc" ] in
  let mgr = Harness.manager c "a" in
  let result = ref None in
  (Txn.run mgr ~max_attempts:1 (fun t ->
       write t ~node:"b" ~key:"y" ~value:"doomed";
       write t ~node:"cc" ~key:"z" ~value:"doomed";
       return ()))
    (fun r -> result := Some r);
  (* crash the coordinator before prepares can complete the round trip *)
  Harness.crash c "a";
  ignore (Sim.schedule c.Harness.sim ~delay:(Sim.ms 300) (fun () -> Harness.recover c "a"));
  Sim.run ~until:(Sim.sec 5) c.Harness.sim;
  check "caller callback suppressed by crash" true (!result = None);
  check_str_opt "no value applied" None
    (Participant.committed_value (Harness.participant c "b") ~key:"y");
  Alcotest.(check (list string))
    "participant b eventually clears prepared state" []
    (Participant.prepared_txids (Harness.participant c "b"));
  (* y must be writable again: locks were released *)
  Harness.exec_ok c
    (Txn.run (Harness.manager c "b") (fun t ->
         write t ~node:"b" ~key:"y" ~value:"alive";
         return ()));
  check_str_opt "lock released, new writer wins" (Some "alive")
    (Participant.committed_value (Harness.participant c "b") ~key:"y")

let test_coordinator_crash_after_decision_resumes_commit () =
  (* Two remote participants, so the commit phase pushes to more than
     one node. *)
  let c = Harness.cluster [ "a"; "b"; "cc" ] in
  let mgr = Harness.manager c "a" in
  (* Delay b's application by partitioning it right after prepare, so the
     decision is logged but the commit messages can't reach b. Then crash
     the coordinator and recover it: recovery must resume the commit. *)
  let result = ref None in
  (Txn.run mgr (fun t ->
       write t ~node:"b" ~key:"y" ~value:"decided";
       write t ~node:"cc" ~key:"z" ~value:"decided";
       return ()))
    (fun r -> result := Some r);
  (* Cut the link the moment the decision is logged at a: the commit
     messages to b are dropped, leaving b prepared and the commit phase
     unfinished. Count the commit messages a sends once recovered. *)
  let recovered = ref false and resumed = ref 0 in
  Event.subscribe (Sim.events c.Harness.sim) (fun ~at:_ ~src:_ -> function
    | Event.Txn_resolved { committed = true; _ } -> Network.partition_on c.Harness.net "a" "b"
    | Event.Rpc_sent { src = "a"; service; _ } ->
      if !recovered && service = Txrecord.service_commit then incr resumed
    | _ -> ());
  ignore (Sim.schedule c.Harness.sim ~delay:(Sim.ms 60) (fun () -> Harness.crash c "a"));
  ignore
    (Sim.schedule c.Harness.sim ~delay:(Sim.ms 120)
       (fun () ->
         Network.partition_off c.Harness.net "a" "b";
         recovered := true;
         Harness.recover c "a"));
  Sim.run ~until:(Sim.sec 10) c.Harness.sim;
  check_str_opt "decision reached b after coordinator recovery" (Some "decided")
    (Participant.committed_value (Harness.participant c "b") ~key:"y");
  check "recovery resumed a commit" true (!resumed >= 1)

let test_commit_survives_lossy_network () =
  let config = { Network.default_config with loss = 0.4 } in
  let c = Harness.cluster ~config ~seed:17L [ "a"; "b"; "cc" ] in
  let mgr = Harness.manager c "a" in
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         write t ~node:"a" ~key:"k" ~value:"1";
         write t ~node:"b" ~key:"k" ~value:"2";
         write t ~node:"cc" ~key:"k" ~value:"3";
         return ()));
  List.iter
    (fun (node, v) ->
      check_str_opt ("applied at " ^ node) (Some v)
        (Participant.committed_value (Harness.participant c node) ~key:"k"))
    [ ("a", "1"); ("b", "2"); ("cc", "3") ]

let test_sequential_transactions_accumulate () =
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" in
  let transfer i =
    Txn.run mgr (fun t ->
        let* balance = read t ~node:"b" ~key:"balance" in
        let current = match balance with Some s -> int_of_string s | None -> 0 in
        write t ~node:"b" ~key:"balance" ~value:(string_of_int (current + i));
        return ())
  in
  List.iter (fun i -> Harness.exec_ok c (transfer i)) [ 1; 2; 3; 4; 5 ];
  check_str_opt "sum accumulated" (Some "15")
    (Participant.committed_value (Harness.participant c "b") ~key:"balance")

let test_checkpoint_compacts_logs () =
  (* the commits cross the wire to b, whose intentions log records each
     one (a local commit at a would log nothing to compact) *)
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" in
  for i = 1 to 20 do
    Harness.exec_ok c
      (Txn.run mgr (fun t ->
           write t ~node:"b" ~key:"x" ~value:(string_of_int i);
           return ()))
  done;
  let p = Harness.participant c "b" in
  let before = Participant.log_length p in
  check_int "a prepare and a commit record per remote commit" 40 before;
  Participant.checkpoint p;
  check "intentions log compacted" true (Participant.log_length p < before);
  Harness.crash c "b";
  Harness.recover c "b";
  check_str_opt "state intact after compaction + crash" (Some "20")
    (Participant.committed_value p ~key:"x")



let test_concurrent_increments_serialize () =
  (* K transactions started at the same instant all read-modify-write one
     counter; conflicts force retries; strict 2PL + retry must serialize
     them: the final value is exactly K *)
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" in
  let k = 8 in
  let done_count = ref 0 in
  let increment () =
    (Txn.run mgr ~max_attempts:64 (fun t ->
         let* v = read t ~node:"b" ~key:"counter" in
         let current = match v with Some s -> int_of_string s | None -> 0 in
         write t ~node:"b" ~key:"counter" ~value:(string_of_int (current + 1));
         return ()))
      (function
        | Ok () -> incr done_count
        | Error e -> Alcotest.failf "increment failed: %s" (Txn.error_to_string e))
  in
  for _ = 1 to k do
    increment ()
  done;
  Harness.run c;
  Alcotest.(check int) "all committed" k !done_count;
  check_str_opt "serialized to exactly k" (Some (string_of_int k))
    (Participant.committed_value (Harness.participant c "b") ~key:"counter")

let test_compact_bounds_coordinator_log () =
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" in
  for i = 1 to 25 do
    Harness.exec_ok c
      (Txn.run mgr (fun t ->
           write t ~node:"b" ~key:"x" ~value:(string_of_int i);
           return ()))
  done;
  Txn.compact mgr;
  (* only incarnation records remain; correctness preserved across crash *)
  Harness.crash c "a";
  Harness.recover c "a";
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         write t ~node:"b" ~key:"x" ~value:"after";
         return ()));
  check_str_opt "state correct after compaction + crash" (Some "after")
    (Participant.committed_value (Harness.participant c "b") ~key:"x")

(* --- The local lane agrees with 2PC --- *)

(* The coordinator-local lane calls [Participant.commit_local] with the
   buffered writes; a writer elsewhere gets the same writes as
   [tx.prepare] and, on a yes vote, [tx.commit]. Twin participants, one
   per path, fed the same steps with distinct txids must vote alike and
   end with the same store, lock count and number of store writes. Only
   2PC keeps intentions-log records and a cached decision, for a repeat
   the local lane never sees; repeated txids are a 2PC case. *)

type holder = Reader of string | Writer of string

type lane_step = {
  txid : string;
  locks : string list;  (* keys the transaction read-locks first *)
  read_keys : string list;  (* keys it reports as read at commit *)
  writes : Txrecord.write list;  (* may repeat a key *)
}

let serve node ~service body = (Option.get (Node.handler node ~service)) ~src:"z" body

(* ((votes, store, locks held, store writes), (log, decided count)) *)
let run_lane ~local ~initial ~holders steps =
  let c = Harness.cluster [ "a" ] in
  let node = Harness.node c "a" and p = Harness.participant c "a" in
  List.iter (fun (k, v) -> Kvstore.put (Participant.store p) k v) initial;
  List.iter
    (function
      | Reader key ->
        ignore (serve node ~service:Txrecord.service_read (Txrecord.enc_read_req ("other", key)))
      | Writer key ->
        ignore
          (serve node ~service:Txrecord.service_prepare
             (Txrecord.enc_prepare_req ~txid:"other" ~coordinator:"z" ~read_keys:[]
                ~writes:[ (key, Some "held") ])))
    holders;
  let vote { txid; locks; read_keys; writes } =
    List.iter
      (fun key ->
        ignore (serve node ~service:Txrecord.service_read (Txrecord.enc_read_req (txid, key))))
      locks;
    if local then Participant.commit_local p ~txid ~read_keys ~writes
    else
      let vote =
        Txrecord.dec_vote
          (serve node ~service:Txrecord.service_prepare
             (Txrecord.enc_prepare_req ~txid ~coordinator:"z" ~read_keys ~writes))
      in
      if vote then ignore (serve node ~service:Txrecord.service_commit (Txrecord.enc_txid txid));
      vote
  in
  let votes = List.map vote steps in
  let store = Kvstore.fold (Participant.store p) ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
  ( (votes, store, Participant.locks_held p, Kvstore.writes_total (Participant.store p)),
    (Participant.log p, Participant.decided_count p) )

let lanes_agree ~initial ~holders steps =
  fst (run_lane ~local:true ~initial ~holders steps)
  = fst (run_lane ~local:false ~initial ~holders steps)

let lane_key_gen = QCheck.Gen.(map (Printf.sprintf "k%d") (int_bound 4))

(* a step's txid is its position, so no txid repeats *)
let lane_step_gen =
  let open QCheck.Gen in
  let write = pair lane_key_gen (opt ~ratio:0.7 (map string_of_int small_nat)) in
  map3
    (fun locks read_keys writes i -> { txid = "t" ^ string_of_int i; locks; read_keys; writes })
    (list_size (int_bound 3) lane_key_gen)
    (list_size (int_bound 2) lane_key_gen)
    (list_size (int_range 0 5) write)

let lane_case_gen =
  let open QCheck.Gen in
  let holder = map2 (fun r k -> if r then Reader k else Writer k) bool lane_key_gen in
  triple
    (list_size (int_bound 3) (pair lane_key_gen (return "init")))
    (list_size (int_bound 2) holder)
    (map (List.mapi (fun i step -> step i)) (list_size (int_range 1 6) lane_step_gen))

let print_lane_case (initial, holders, steps) =
  let holder = function Reader k -> "r:" ^ k | Writer k -> "w:" ^ k in
  let write (k, v) = k ^ "=" ^ Option.value v ~default:"<del>" in
  let step s =
    Printf.sprintf "%s locks[%s] reads[%s] writes[%s]" s.txid (String.concat "," s.locks)
      (String.concat "," s.read_keys)
      (String.concat "," (List.map write s.writes))
  in
  Printf.sprintf "initial[%s] holders[%s]\n%s"
    (String.concat "," (List.map fst initial))
    (String.concat "," (List.map holder holders))
    (String.concat "\n" (List.map step steps))

let prop_local_lane_agrees_with_2pc =
  QCheck.Test.make ~name:"local lane agrees with prepare+commit" ~count:300
    (QCheck.make ~print:print_lane_case lane_case_gen)
    (fun (initial, holders, steps) -> lanes_agree ~initial ~holders steps)

let test_local_lane_agrees_with_2pc_cases () =
  (* a commit, a commit refused by a conflicting holder, and a commit
     refused because a reported read lock was never taken *)
  let t1 =
    { txid = "t1"; locks = [ "k0" ]; read_keys = [ "k0" ];
      writes = [ ("k1", Some "a"); ("k1", None); ("k2", Some "b") ] }
  and t2 = { txid = "t2"; locks = []; read_keys = []; writes = [ ("k4", Some "c") ] }
  and t3 = { txid = "t3"; locks = []; read_keys = [ "k2" ]; writes = [ ("k2", Some "e") ] } in
  let initial = [ ("k1", "init") ] and holders = [ Writer "k4" ] in
  let steps = [ t1; t2; t3 ] in
  let (votes, store, locks, store_writes), (log, decided) =
    run_lane ~local:true ~initial ~holders steps
  in
  let one_apply = List.length initial + List.length t1.writes in
  Alcotest.(check (list bool)) "votes" [ true; false; false ] votes;
  Alcotest.(check (list (pair string string))) "store" [ ("k2", "b") ] store;
  check_int "only the holder's prepare is logged" 1 (List.length log);
  check_int "no cached decision" 0 decided;
  check_int "only the holder's lock remains" 1 locks;
  check_int "one apply" one_apply store_writes;
  check "2PC agrees" true (lanes_agree ~initial ~holders steps);
  let _, (log_2pc, decided_2pc) = run_lane ~local:false ~initial ~holders steps in
  check "2PC logs its prepare and its commit" true
    (List.mem (Txrecord.P_committed "t1") log_2pc && List.length log_2pc = 3);
  check_int "2PC caches the commit; a refused prepare leaves nothing" 1 decided_2pc;
  (* a duplicate of the committed prepare (with other writes) and of
     its commit gets the first decision again and changes nothing *)
  let dup1 = { t1 with locks = []; read_keys = []; writes = [ ("k3", Some "dup") ] } in
  let (votes, store, locks, store_writes), (log, _) =
    run_lane ~local:false ~initial ~holders [ t1; dup1; t2; t3 ]
  in
  Alcotest.(check (list bool)) "2PC votes" [ true; true; false; false ] votes;
  Alcotest.(check (list (pair string string))) "2PC store" [ ("k2", "b") ] store;
  check_int "the holder's prepare, t1's prepare and commit" 3 (List.length log);
  check_int "2PC: only the holder's lock remains" 1 locks;
  check_int "2PC: one apply" one_apply store_writes

(* --- A local commit leaves nothing behind --- *)

module Model = Map.Make (String)
module Keys = Set.Make (String)

type flat_step =
  | Commit of Txrecord.write list  (* local writes ([None] = delete) in one Txn.run *)
  | Block of string  (* another transaction read-locks the key at a *)
  | Unblock  (* that transaction aborts, releasing its locks *)
  | Crash  (* a crashes and recovers *)

(* Random local transactions over at most 8 keys on one node, refused
   while a blocker holds a lock they need, with crashes in between.
   After every step the participant must keep no log record and no
   cached decision, hold only the blocker's locks, and store exactly
   what a map model holds. *)
let local_commits_stay_flat steps =
  let c = Harness.cluster [ "a" ] in
  let node = Harness.node c "a" and p = Harness.participant c "a" in
  let mgr = Harness.manager c "a" in
  let model = ref Model.empty and blocked = ref Keys.empty in
  let step = function
    | Commit writes ->
      let result =
        Harness.exec c
          (Txn.run mgr ~max_attempts:1 (fun t ->
               List.iter
                 (fun (key, v) ->
                   match v with
                   | Some value -> write t ~node:"a" ~key ~value
                   | None -> delete t ~node:"a" ~key)
                 writes;
               return ()))
      in
      let refused = List.exists (fun (key, _) -> Keys.mem key !blocked) writes in
      let apply m (key, v) =
        match v with Some value -> Model.add key value m | None -> Model.remove key m
      in
      if not refused then model := List.fold_left apply !model writes;
      Result.is_error result = refused
    | Block key ->
      ignore (serve node ~service:Txrecord.service_read (Txrecord.enc_read_req ("blocker", key)));
      blocked := Keys.add key !blocked;
      true
    | Unblock ->
      ignore (serve node ~service:Txrecord.service_abort (Txrecord.enc_txid "blocker"));
      blocked := Keys.empty;
      true
    | Crash ->
      Harness.crash c "a";
      Harness.recover c "a";
      blocked := Keys.empty;
      true
  in
  let flat () =
    let store = Kvstore.fold (Participant.store p) ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
    Participant.log_length p = 0
    && Participant.decided_count p = 0
    && Participant.locks_held p = Keys.cardinal !blocked
    && List.sort compare store = Model.bindings !model
  in
  List.for_all (fun s -> step s && flat ()) steps

let flat_step_gen =
  let open QCheck.Gen in
  let key = map (Printf.sprintf "k%d") (int_bound 7) in
  let write = pair key (opt ~ratio:0.7 (map string_of_int small_nat)) in
  frequency
    [
      (6, map (fun w -> Commit w) (list_size (int_range 0 4) write));
      (2, map (fun k -> Block k) key);
      (1, return Unblock);
      (1, return Crash);
    ]

let print_flat_step = function
  | Commit writes ->
    "commit "
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ Option.value v ~default:"<del>") writes)
  | Block k -> "block " ^ k
  | Unblock -> "unblock"
  | Crash -> "crash"

let prop_local_commits_flat =
  QCheck.Test.make ~name:"local commits leave the participant flat" ~count:200
    (QCheck.make
       ~print:(fun steps -> String.concat "\n" (List.map print_flat_step steps))
       QCheck.Gen.(list_size (int_range 1 12) flat_step_gen))
    local_commits_stay_flat

(* [Participant.commit_local] keeps no duplicate memory because each
   txid reaches it once. That rests on the coordinator never reusing a
   txid: not for a retry after a conflict, and not after a crash resets
   its sequence numbers. *)
let test_local_lane_txids_never_repeat () =
  let c = Harness.cluster [ "a" ] in
  let sim = c.Harness.sim and mgr = Harness.manager c "a" in
  let seen = Hashtbl.create 64 and repeats = ref [] and refused = ref 0 in
  Event.subscribe (Sim.events sim) (fun ~at:_ ~src:_ -> function
    | Event.Txn_one_phase { txid } ->
      if Hashtbl.mem seen txid then repeats := txid :: !repeats else Hashtbl.add seen txid ()
    | Event.Txn_resolved { committed = false; _ } -> incr refused
    | _ -> ());
  (* a local read completes within its own event, so each transaction
     waits a millisecond between its read and its write: the others'
     read locks then refuse its commit *)
  let pause k = ignore (Sim.schedule sim ~delay:(Sim.ms 1) (fun () -> k (Ok ()))) in
  let increment () =
    (Txn.run mgr ~max_attempts:64 (fun t ->
         let* v = read t ~node:"a" ~key:"counter" in
         let* () = pause in
         let current = match v with Some s -> int_of_string s | None -> 0 in
         write t ~node:"a" ~key:"counter" ~value:(string_of_int (current + 1));
         return ()))
      ignore
  in
  let burst () =
    for _ = 1 to 8 do
      increment ()
    done
  in
  burst ();
  Harness.run c;
  let before_crash = Hashtbl.length seen in
  (* a second burst, cut by a crash of the coordinator's node *)
  burst ();
  ignore (Sim.schedule sim ~delay:(Sim.ms 3) (fun () -> Harness.crash c "a"));
  ignore (Sim.schedule sim ~delay:(Sim.ms 4) (fun () -> Harness.recover c "a"));
  Harness.run c;
  let after_recovery = Hashtbl.length seen in
  burst ();
  Harness.run c;
  check "conflicts forced retries" true (!refused > 0);
  check_int "the first burst committed" 8 before_crash;
  check "commits after the recovery" true (Hashtbl.length seen > after_recovery);
  Alcotest.(check (list string)) "no local-lane txid repeats" [] !repeats

(* Writes reach each participant in descending key order, whichever
   transaction in the nest buffered them, so WAL records keep their
   bytes. *)
let test_wal_order_with_merged_child () =
  let c = Harness.cluster [ "a"; "b" ] in
  let prepared id =
    List.filter_map
      (function Txrecord.P_prepared { writes; _ } -> Some writes | _ -> None)
      (Participant.log (Harness.participant c id))
  in
  let writes = Alcotest.(list (pair string (option string))) in
  Harness.exec_ok c
    (Txn.run (Harness.manager c "a") (fun t ->
         write t ~node:"a" ~key:"k1" ~value:"r1";
         write t ~node:"a" ~key:"k3" ~value:"r3";
         delete t ~node:"b" ~key:"j2";
         let child = begin_child t in
         write child ~node:"a" ~key:"k2" ~value:"c2";
         write child ~node:"a" ~key:"k3" ~value:"c3";
         write child ~node:"b" ~key:"j1" ~value:"c1";
         write child ~node:"b" ~key:"j3" ~value:"c3";
         commit child));
  let at_a = [ ("k3", Some "c3"); ("k2", Some "c2"); ("k1", Some "r1") ] in
  let at_b = [ ("j3", Some "c3"); ("j2", None); ("j1", Some "c1") ] in
  Alcotest.check Alcotest.(list writes) "a's prepare record" [ at_a ] (prepared "a");
  Alcotest.check Alcotest.(list writes) "b's prepare record" [ at_b ] (prepared "b");
  (* the local one-phase lane applies the merged writes *)
  let m = metrics c in
  Harness.exec_ok c
    (Txn.run (Harness.manager c "a") (fun t ->
         write t ~node:"a" ~key:"m1" ~value:"r1";
         let child = begin_child t in
         write child ~node:"a" ~key:"m2" ~value:"c2";
         write child ~node:"a" ~key:"m0" ~value:"c0";
         commit child));
  check_int "local one-phase lane" 1 (Metrics.value m "txn.one_phase");
  List.iter
    (fun (key, value) ->
      check_str_opt ("a stores " ^ key) (Some value)
        (Participant.committed_value (Harness.participant c "a") ~key))
    [ ("m0", "c0"); ("m1", "r1"); ("m2", "c2") ]

(* --- the crash fence: nothing a node scheduled runs after its crash --- *)

let at c ms f = ignore (Sim.schedule c.Harness.sim ~delay:(Sim.ms ms) f)

(* A conflict retry is a timer of the coordinator: a crash before it
   fires ends the transaction, and recovery does not resume it. *)
let test_run_retry_dies_with_coordinator () =
  let c = Harness.cluster [ "a" ] in
  let attempts = ref 0 and finished = ref false in
  (Txn.run (Harness.manager c "a") (fun t ->
       incr attempts;
       if !attempts = 1 then fail (`Conflict "forced")
       else begin
         write t ~node:"a" ~key:"x" ~value:"late";
         return ()
       end))
    (fun _ -> finished := true);
  at c 1 (fun () -> Harness.crash c "a");
  at c 2 (fun () -> Harness.recover c "a");
  Harness.run c;
  check_int "one attempt" 1 !attempts;
  check "no continuation" false !finished;
  check_str_opt "nothing committed" None
    (Participant.committed_value (Harness.participant c "a") ~key:"x")

(* A commit push retrying against a crashed participant is a timer of
   the coordinator too: while the coordinator is down it sends nothing,
   and its recovery starts the one loop that finishes the commit. *)
let test_commit_push_silent_while_down () =
  List.iter
    (fun crash_at ->
      let c = Harness.cluster [ "a"; "b"; "c" ] in
      let down_sends = ref 0 in
      Event.subscribe (Sim.events c.Harness.sim) (fun ~at:_ ~src:_ -> function
        | Event.Rpc_sent { src = "a"; _ } when not (Node.up (Harness.node c "a")) ->
          incr down_sends
        | _ -> ());
      (Txn.run (Harness.manager c "a") (fun t ->
           write t ~node:"b" ~key:"y" ~value:"v";
           write t ~node:"c" ~key:"z" ~value:"v";
           return ()))
        ignore;
      at c 3 (fun () -> Harness.crash c "b");
      at c crash_at (fun () -> Harness.crash c "a");
      at c 1500 (fun () ->
          Harness.recover c "a";
          Harness.recover c "b");
      Sim.run ~until:(Sim.sec 3) c.Harness.sim;
      check_int (Printf.sprintf "sends while down (crash at %d ms)" crash_at) 0 !down_sends;
      check_str_opt "commit finished after recovery" (Some "v")
        (Participant.committed_value (Harness.participant c "b") ~key:"y"))
    [ 100; 110; 120; 130 ]

(* A prepared participant polls its crashed coordinator. Each of its own
   recoveries starts a poll loop; the loops of earlier lives must end
   with them, leaving one. *)
let test_one_poll_loop_per_life () =
  let c = Harness.cluster [ "a"; "b"; "c" ] in
  let polls = ref 0 in
  Event.subscribe (Sim.events c.Harness.sim) (fun ~at:_ ~src:_ -> function
    | Event.Rpc_sent { src = "b"; service; _ } when service = Txrecord.service_status -> incr polls
    | _ -> ());
  (Txn.run (Harness.manager c "a") (fun t ->
       write t ~node:"b" ~key:"y" ~value:"v";
       write t ~node:"c" ~key:"z" ~value:"v";
       return ()))
    ignore;
  at c 1 (fun () -> Harness.crash c "a");
  List.iter
    (fun (down, up) ->
      at c down (fun () -> Harness.crash c "b");
      at c up (fun () -> Harness.recover c "b"))
    [ (10, 11); (12, 13) ];
  Sim.run ~until:(Sim.sec 2) c.Harness.sim;
  check "b is still prepared" true (Participant.prepared_txids (Harness.participant c "b") <> []);
  check_int "status polls of one loop" 14 !polls

type fence_txn = { coord : int; start_ms : int; conflict_first : bool }

type fence_case = { crashes : (int * int * int) list; txns : fence_txn list }

let fence_nodes = [| "a"; "b"; "c" |]

let print_fence_case { crashes; txns } =
  String.concat "; "
    (List.map
       (fun (n, at, down) -> Printf.sprintf "crash %s@%d+%d" fence_nodes.(n) at down)
       crashes
    @ List.map
        (fun t ->
          Printf.sprintf "txn %s@%d%s" fence_nodes.(t.coord) t.start_ms
            (if t.conflict_first then " conflict-first" else ""))
        txns)

let fence_case_gen =
  QCheck.Gen.(
    let crash = triple (int_bound 2) (int_bound 80) (int_range 1 30) in
    let txn =
      map3
        (fun coord start_ms conflict_first -> { coord; start_ms; conflict_first })
        (int_bound 2) (int_bound 60) bool
    in
    map2
      (fun crashes txns -> { crashes; txns })
      (list_size (int_range 1 4) crash)
      (list_size (int_range 1 6) txn))

(* Random crash schedules over three coordinators whose transactions
   conflict on their first attempt and write to both other nodes (2PC):
   no node sends while down, and no transaction's continuation runs
   once its coordinator has crashed since the transaction began. *)
let crash_schedule_respects_fence { crashes; txns } =
  let c = Harness.cluster (Array.to_list fence_nodes) in
  let lives = Array.make (Array.length fence_nodes) 0 in
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  Event.subscribe (Sim.events c.Harness.sim) (fun ~at ~src:_ -> function
    | Event.Rpc_sent { src; service; _ } when not (Node.up (Harness.node c src)) ->
      violation "%s sent %s at %d us while down" src service at
    | _ -> ());
  List.iter
    (fun (n, start, down) ->
      let id = fence_nodes.(n) in
      at c start (fun () ->
          if Node.up (Harness.node c id) then lives.(n) <- lives.(n) + 1;
          Harness.crash c id);
      at c (start + down) (fun () -> Harness.recover c id))
    crashes;
  List.iteri
    (fun i { coord; start_ms; conflict_first } ->
      let id = fence_nodes.(coord) in
      let others = List.filter (fun o -> o <> id) (Array.to_list fence_nodes) in
      at c start_ms (fun () ->
          if Node.up (Harness.node c id) then begin
            let life = lives.(coord) and attempts = ref 0 in
            (Txn.run (Harness.manager c id) (fun t ->
                 incr attempts;
                 if conflict_first && !attempts = 1 then fail (`Conflict "forced")
                 else begin
                   List.iter
                     (fun node ->
                       write t ~node ~key:(Printf.sprintf "k%d" i) ~value:(string_of_int !attempts))
                     others;
                   return ()
                 end))
              (fun _ ->
                if lives.(coord) <> life then
                  violation "txn %d continued at %d us after %s crashed" i
                    (Sim.now c.Harness.sim) id)
          end))
    txns;
  Sim.run ~until:(Sim.sec 3) c.Harness.sim;
  match !violations with
  | [] -> true
  | vs -> QCheck.Test.fail_report (String.concat "\n" (List.rev vs))

let prop_crash_schedules_respect_fence =
  QCheck.Test.make ~name:"crash schedules: nothing runs on a down or restarted node" ~count:200
    (QCheck.make ~print:print_fence_case fence_case_gen)
    crash_schedule_respects_fence

(* --- untrusted bytes at the tx.* services --- *)

let escaped_run ?until c =
  match Harness.run ?until c with
  | exception e -> Alcotest.failf "escaped Sim.run: %s" (Printexc.to_string e)
  | () -> ()

(* A coordinator's status reply that does not decode is no answer: the
   prepared participant polls again, and the next, readable reply
   decides. *)
let test_undecodable_status_reply_polls_again () =
  let c = Harness.cluster [ "a"; "b" ] in
  let p_b = Harness.participant c "b" in
  let replies = ref [ "garbage" ] and polls = ref 0 in
  Node.serve (Harness.node c "a") ~service:Txrecord.service_status (fun ~src:_ _ ->
      incr polls;
      match !replies with
      | r :: rest ->
        replies := rest;
        r
      | [] -> Txrecord.enc_status_reply `Committed);
  ignore
    (serve (Harness.node c "b") ~service:Txrecord.service_prepare
       (Txrecord.enc_prepare_req ~txid:"tz" ~coordinator:"a" ~read_keys:[]
          ~writes:[ ("y", Some "v") ]));
  escaped_run ~until:(Sim.sec 1) c;
  check_int "polled again after the garbage" 2 !polls;
  check_str_opt "the readable reply committed" (Some "v")
    (Participant.committed_value p_b ~key:"y");
  Alcotest.(check (list string)) "nothing left prepared" [] (Participant.prepared_txids p_b)

(* A read reply that does not decode is a lost reply: the read times
   out. *)
let test_undecodable_read_reply_times_out () =
  let c = Harness.cluster [ "a"; "b" ] in
  Node.serve (Harness.node c "b") ~service:Txrecord.service_read (fun ~src:_ _ -> "garbage");
  let result = ref None in
  (Txn.run (Harness.manager c "a") ~max_attempts:1 (fun t -> read t ~node:"b" ~key:"x"))
    (fun r -> result := Some r);
  escaped_run c;
  check "the read timed out" true (!result = Some (Error `Timeout))

let tx_services =
  Txrecord.
    [ service_read; service_prepare; service_prepare_ro; service_commit; service_abort;
      service_status ]

(* whether [body] is a request of [service]: only [Malformed] counts as
   "does not decode", any other exception fails the property *)
let tx_decodes service body =
  let ok dec = match dec body with exception Wire.Malformed _ -> false | _ -> true in
  if service = Txrecord.service_read then ok Txrecord.dec_read_req
  else if service = Txrecord.service_prepare then ok Txrecord.dec_prepare_req
  else if service = Txrecord.service_prepare_ro then ok Txrecord.dec_prepare_ro
  else ok Txrecord.dec_txid

let tx_reply_well_formed service reply =
  let ok dec = match dec reply with exception Wire.Malformed _ -> false | _ -> true in
  if service = Txrecord.service_read then ok Txrecord.dec_read_reply
  else if service = Txrecord.service_prepare || service = Txrecord.service_prepare_ro then
    ok Txrecord.dec_vote
  else if service = Txrecord.service_status then ok Txrecord.dec_status_reply
  else reply = "ack"

(* the txids of the fuzz cluster's committed and pending transactions *)
let committed_txid = "t:a:1:1"

let pending_txid = "t:a:1:2"

let gen_tx_fuzz_case =
  let open QCheck.Gen in
  let txid = oneofl [ committed_txid; pending_txid; "r1"; "t9"; "" ] in
  let key = oneofl [ "x"; "y"; "k0"; "k1" ] in
  let keys = list_size (int_bound 2) key in
  let writes = list_size (int_bound 2) (pair key (opt (oneofl [ "v"; "" ]))) in
  let well_formed service =
    if service = Txrecord.service_read then map Txrecord.enc_read_req (pair txid key)
    else if service = Txrecord.service_prepare then
      map
        (fun (txid, coordinator, read_keys, writes) ->
          Txrecord.enc_prepare_req ~txid ~coordinator ~read_keys ~writes)
        (quad txid (oneofl [ "a"; "b"; "zz" ]) keys writes)
    else if service = Txrecord.service_prepare_ro then
      map (fun (txid, read_keys) -> Txrecord.enc_prepare_ro ~txid ~read_keys) (pair txid keys)
    else map Txrecord.enc_txid txid
  in
  let flip body =
    map
      (fun flips ->
        let b = Bytes.of_string body in
        List.iter
          (fun (pos, bit) ->
            if Bytes.length b > 0 then begin
              let i = pos mod Bytes.length b in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))
            end)
          flips;
        Bytes.to_string b)
      (list_size (int_range 1 4) (pair nat (int_bound 7)))
  in
  let mutate body =
    frequency
      [
        (2, return body);
        (3, map (fun k -> String.sub body 0 (k mod (String.length body + 1))) nat);
        (3, flip body);
        (2, string_size (int_bound 40));
        ( 1,
          map
            (fun h -> h ^ ":" ^ body)
            (oneofl [ "4611686018427387903"; "13835058055282163700" ]) );
      ]
  in
  oneofl tx_services >>= fun service ->
  well_formed service >>= mutate >|= fun body -> (service, body)

(* A cluster with state at b for a stray request to disturb: a committed
   2PC write, a read lock, and a prepared transaction whose coordinator
   keeps it pending. *)
let fuzz_cluster () =
  let c = Harness.cluster [ "a"; "b" ] in
  let mgr = Harness.manager c "a" and b = Harness.node c "b" in
  Harness.exec_ok c
    (Txn.run mgr (fun t ->
         write t ~node:"b" ~key:"x" ~value:"1";
         return ()));
  let pending = Txn.begin_ mgr in
  assert (Txn.txid pending = pending_txid);
  ignore (serve b ~service:Txrecord.service_read (Txrecord.enc_read_req ("r1", "k0")));
  ignore
    (serve b ~service:Txrecord.service_prepare
       (Txrecord.enc_prepare_req ~txid:pending_txid ~coordinator:"a" ~read_keys:[]
          ~writes:[ ("y", Some "p") ]));
  c

let prop_tx_services_survive_mutated_bodies =
  QCheck.Test.make ~name:"tx.* survive mutated bodies" ~count:300
    (QCheck.make gen_tx_fuzz_case ~print:(fun (service, body) ->
         Printf.sprintf "%s: %S" service body))
    (fun (service, body) ->
      let c = fuzz_cluster () in
      let p = Harness.participant c "b" and mgr = Harness.manager c "a" in
      let state () =
        ( List.sort compare
            (Kvstore.fold (Participant.store p) ~init:[] ~f:(fun acc k v -> (k, v) :: acc)),
          Participant.log p,
          Participant.locks_held p,
          Participant.prepared_txids p,
          Participant.decided_count p,
          Txn.active_count mgr,
          Txn.undecided_commits mgr )
      in
      let before = state () in
      let decodes = tx_decodes service body in
      let src, dst = if service = Txrecord.service_status then ("b", "a") else ("a", "b") in
      let result = ref None in
      Rpc.call c.Harness.rpc ~src ~dst ~service ~body (fun r -> result := Some r);
      (match Harness.run ~until:(Sim.now c.Harness.sim + Sim.sec 1) c with
      | exception e -> QCheck.Test.fail_reportf "escaped Sim.run: %s" (Printexc.to_string e)
      | () -> ());
      match !result with
      | None -> QCheck.Test.fail_report "call never completed"
      | Some (Ok reply) when decodes -> tx_reply_well_formed service reply
      | Some (Ok _) -> QCheck.Test.fail_report "undecodable body got a reply"
      | Some (Error e) when decodes -> QCheck.Test.fail_reportf "decodable body failed: %s" e
      | Some (Error _) -> state () = before)

let () =
  Alcotest.run "tx"
    [
      ( "locks",
        [
          Alcotest.test_case "read sharing" `Quick test_lock_read_sharing;
          Alcotest.test_case "write exclusive" `Quick test_lock_write_exclusive;
          Alcotest.test_case "upgrade" `Quick test_lock_upgrade;
          Alcotest.test_case "release all" `Quick test_lock_release_all;
        ] );
      ( "local",
        [
          Alcotest.test_case "commit visible" `Quick test_commit_visible;
          Alcotest.test_case "read your writes" `Quick test_read_your_writes;
          Alcotest.test_case "abort discards" `Quick test_abort_discards;
          Alcotest.test_case "conflict then retry" `Quick test_conflict_and_retry;
          Alcotest.test_case "no dirty read" `Quick test_isolation_no_dirty_read;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "two-node commit" `Quick test_two_node_commit;
          Alcotest.test_case "atomic abort" `Quick test_atomicity_under_conflict;
          Alcotest.test_case "lossy network" `Quick test_commit_survives_lossy_network;
          Alcotest.test_case "sequential accumulate" `Quick test_sequential_transactions_accumulate;
          Alcotest.test_case "concurrent increments serialize" `Quick
            test_concurrent_increments_serialize;
        ] );
      ( "nested",
        [
          Alcotest.test_case "commit merges" `Quick test_nested_commit_merges;
          Alcotest.test_case "abort child only" `Quick test_nested_abort_discards_child_only;
          Alcotest.test_case "child wins merge" `Quick test_nested_child_wins_merge;
        ] );
      ( "fast lanes",
        [
          Alcotest.test_case "one-phase local, no rpc" `Quick test_one_phase_local_no_rpc;
          Alcotest.test_case "one-phase remote" `Quick test_one_phase_remote_commit;
          Alcotest.test_case "one-phase refused" `Quick test_one_phase_refused_on_conflict;
          Alcotest.test_case "read-only elided" `Quick test_readonly_txn_elided;
          Alcotest.test_case "read-only conflict" `Quick test_readonly_elision_under_conflict;
          Alcotest.test_case "one-phase through partition" `Quick
            test_one_phase_through_partition;
          Alcotest.test_case "read-only elision through partition" `Quick
            test_readonly_elision_through_partition;
          Alcotest.test_case "mixed fan-out elision" `Quick
            test_mixed_readonly_elided_from_fanout;
          Alcotest.test_case "local lane agrees with 2PC" `Quick
            test_local_lane_agrees_with_2pc_cases;
          QCheck_alcotest.to_alcotest prop_local_lane_agrees_with_2pc;
          QCheck_alcotest.to_alcotest prop_local_commits_flat;
          Alcotest.test_case "local-lane txids never repeat" `Quick
            test_local_lane_txids_never_repeat;
          Alcotest.test_case "wal order with merged child" `Quick
            test_wal_order_with_merged_child;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "participant crash after prepare" `Quick
            test_participant_crash_after_prepare_commits_eventually;
          Alcotest.test_case "coordinator crash pre-decision" `Quick
            test_coordinator_crash_before_decision_presumed_abort;
          Alcotest.test_case "coordinator crash post-decision" `Quick
            test_coordinator_crash_after_decision_resumes_commit;
          Alcotest.test_case "checkpoint" `Quick test_checkpoint_compacts_logs;
          Alcotest.test_case "checkpoint then crash" `Quick
            test_checkpoint_then_crash_recovers_exact_state;
          Alcotest.test_case "coordinator log compaction" `Quick
            test_compact_bounds_coordinator_log;
        ] );
      ( "crash fence",
        [
          Alcotest.test_case "run retry dies with its coordinator" `Quick
            test_run_retry_dies_with_coordinator;
          Alcotest.test_case "commit push silent while down" `Quick
            test_commit_push_silent_while_down;
          Alcotest.test_case "one poll loop per life" `Quick test_one_poll_loop_per_life;
          QCheck_alcotest.to_alcotest prop_crash_schedules_respect_fence;
        ] );
      ( "malformed",
        [
          Alcotest.test_case "status reply: polls again" `Quick
            test_undecodable_status_reply_polls_again;
          Alcotest.test_case "read reply: times out" `Quick
            test_undecodable_read_reply_times_out;
          QCheck_alcotest.to_alcotest prop_tx_services_survive_mutated_bodies;
        ] );
    ]
