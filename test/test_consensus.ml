(* Tests for the consensus layer: the replicated log (bootstrap
   election, quorum append, leader failover, catch-up of rejoining
   replicas, suffix truncation) and the replica-set client (redirects,
   failover, the bounded redirect loop when no leader is electable). *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* A toy deterministic state machine: committed payloads accumulate in
   order; apply returns "r:<payload>". *)
type machine = { mutable applied : string list }

let make_group ?(seed = 11L) ?(clients = [ "client" ]) ids =
  let sim = Sim.create ~seed () in
  let net = Network.create ~config:Network.default_config sim in
  let rpc = Rpc.create net in
  let members =
    List.map
      (fun id ->
        let node = Network.add_node net ~id in
        Rpc.attach rpc node;
        let m = { applied = [] } in
        let rlog =
          Rlog.create ~rpc ~node ~peers:ids
            ~apply:(fun p ->
              m.applied <- m.applied @ [ p ];
              "r:" ^ p)
            ~reset:(fun () -> m.applied <- [])
            ()
        in
        (id, (node, m, rlog)))
      ids
  in
  List.iter (fun id -> Rpc.attach rpc (Network.add_node net ~id)) clients;
  (sim, net, rpc, members)

let rlog_of members id =
  let _, _, r = List.assoc id members in
  r

let machine_of members id =
  let _, m, _ = List.assoc id members in
  m

let leader_of members =
  List.filter_map (fun (id, (_, _, r)) -> if Rlog.role r = Rlog.Leader then Some id else None)
    members

let test_bootstrap_elects_lowest_rank () =
  let sim, _, _, members = make_group [ "r1"; "r2"; "r3" ] in
  Sim.run sim;
  Alcotest.(check (list string)) "r1 leads" [ "r1" ] (leader_of members);
  check "followers know the leader" true
    (List.for_all
       (fun id -> Rlog.leader_hint (rlog_of members id) = Some "r1")
       [ "r2"; "r3" ]);
  check_int "noop committed everywhere" 1 (Rlog.commit_index (rlog_of members "r3"))

let test_append_replicates_to_all () =
  let sim, _, rpc, members = make_group [ "r1"; "r2"; "r3" ] in
  Sim.run sim;
  let rc = Rlog_client.create ~rpc ~src:"client" ~replicas:[ "r1"; "r2"; "r3" ] () in
  let replies = ref [] in
  Rlog_client.append rc ~payload:"a" (fun r -> replies := r :: !replies);
  Rlog_client.append rc ~payload:"b" (fun r -> replies := r :: !replies);
  Sim.run sim;
  check "both acks" true
    (List.sort compare !replies = [ Ok "r:a"; Ok "r:b" ]);
  List.iter
    (fun id ->
      check ("applied in order on " ^ id) true ((machine_of members id).applied = [ "a"; "b" ]);
      check_int ("commit on " ^ id) 3 (Rlog.commit_index (rlog_of members id)))
    [ "r1"; "r2"; "r3" ];
  check "logs identical" true
    (Rlog.committed (rlog_of members "r1") = Rlog.committed (rlog_of members "r2")
    && Rlog.committed (rlog_of members "r2") = Rlog.committed (rlog_of members "r3"))

let test_leader_crash_failover_and_catchup () =
  let sim, net, rpc, members = make_group [ "r1"; "r2"; "r3" ] in
  Sim.run sim;
  let rc = Rlog_client.create ~rpc ~src:"client" ~replicas:[ "r1"; "r2"; "r3" ] () in
  let acks = ref [] in
  Rlog_client.append rc ~payload:"a" (fun r -> acks := r :: !acks);
  Sim.run sim;
  (* kill the leader; the next append fails over, nudges an election,
     and commits under the new leader *)
  Node.crash (Network.node net "r1");
  Rlog_client.append rc ~payload:"b" (fun r -> acks := r :: !acks);
  Sim.run sim;
  check "both appends acked" true (List.length !acks = 2 && List.for_all Result.is_ok !acks);
  let survivors = leader_of members in
  check "a survivor leads" true (survivors = [ "r2" ] || survivors = [ "r3" ]);
  (* the old leader rejoins as a follower and catches up from the log *)
  Node.recover (Network.node net "r1");
  Sim.run sim;
  check "r1 back as follower" true (Rlog.role (rlog_of members "r1") <> Rlog.Leader);
  check "r1 caught up" true
    (Rlog.committed (rlog_of members "r1") = Rlog.committed (rlog_of members "r2"));
  check "state machine rebuilt in order" true ((machine_of members "r1").applied = [ "a"; "b" ])

let test_partitioned_leader_deposed_and_truncated () =
  let sim, net, rpc, members = make_group [ "r1"; "r2"; "r3" ] in
  Sim.run sim;
  let rc = Rlog_client.create ~rpc ~src:"client" ~replicas:[ "r1"; "r2"; "r3" ] () in
  let acks = ref [] in
  Rlog_client.append rc ~payload:"a" (fun r -> acks := r :: !acks);
  Sim.run sim;
  (* cut r1 off from everyone, client included: its term cannot commit
     anything, and the majority side elects a new leader *)
  List.iter (fun p -> Network.partition_on net "r1" p) [ "r2"; "r3"; "client" ];
  Rlog_client.append rc ~payload:"b" (fun r -> acks := r :: !acks);
  Sim.run sim;
  check "append committed on majority side" true
    (List.exists (fun r -> r = Ok "r:b") !acks);
  (* r1, partitioned but alive, still believes in its old term — only
     contact can depose it. The majority side must have its own leader. *)
  let majority_leader =
    match List.filter (fun id -> id <> "r1") (leader_of members) with
    | [ l ] -> l
    | other -> Alcotest.failf "expected one majority leader, got %d" (List.length other)
  in
  (* heal: the deposed leader steps down on first contact and converges *)
  List.iter (fun p -> Network.partition_off net "r1" p) [ "r2"; "r3"; "client" ];
  Rlog_client.append rc ~payload:"c" (fun r -> acks := r :: !acks);
  Sim.run sim;
  check "r1 follower after heal" true (Rlog.role (rlog_of members "r1") <> Rlog.Leader);
  check "r1 log converged" true
    (Rlog.committed (rlog_of members "r1") = Rlog.committed (rlog_of members majority_leader));
  check "r1 replayed exactly the committed commands" true
    ((machine_of members "r1").applied = [ "a"; "b"; "c" ])

let test_no_quorum_append_bounded () =
  let sim, net, rpc, members = make_group [ "r1"; "r2"; "r3" ] in
  Sim.run sim;
  ignore members;
  (* two of three replicas down for good: no leader is electable, so
     the client's redirect/failover loop must terminate with an error
     and the simulator must drain (no retry loop left behind) *)
  Node.crash (Network.node net "r1");
  Node.crash (Network.node net "r2");
  let rc = Rlog_client.create ~rpc ~src:"client" ~replicas:[ "r1"; "r2"; "r3" ] () in
  let result = ref None in
  Rlog_client.append rc ~payload:"x" (fun r -> result := Some r);
  Sim.run sim;
  check "append failed" true (match !result with Some (Error _) -> true | _ -> false);
  check_int "simulator drained" 0 (Sim.pending sim)

let test_duplicate_cid_applies_once () =
  (* the state-machine-level dedup lives in Repository.apply_command;
     here we check the log level: the same payload appended twice *is*
     two entries — dedup is the state machine's job, which is exactly
     why commands carry client ids *)
  let sim, _, rpc, members = make_group [ "r1"; "r2"; "r3" ] in
  Sim.run sim;
  let rc = Rlog_client.create ~rpc ~src:"client" ~replicas:[ "r1"; "r2"; "r3" ] () in
  Rlog_client.append rc ~payload:"x" (fun _ -> ());
  Rlog_client.append rc ~payload:"x" (fun _ -> ());
  Sim.run sim;
  check_int "two entries" 3 (Rlog.commit_index (rlog_of members "r1"));
  check "applied twice at log level" true ((machine_of members "r1").applied = [ "x"; "x" ])

let test_single_replica_group () =
  let sim, _, rpc, members = make_group [ "solo" ] in
  Sim.run sim;
  Alcotest.(check (list string)) "leads itself" [ "solo" ] (leader_of members);
  let rc = Rlog_client.create ~rpc ~src:"client" ~replicas:[ "solo" ] () in
  let got = ref None in
  Rlog_client.append rc ~payload:"a" (fun r -> got := Some r);
  Sim.run sim;
  check "commits alone" true (!got = Some (Ok "r:a"))

let test_determinism_same_seed () =
  let run () =
    let sim, net, rpc, members = make_group ~seed:42L [ "r1"; "r2"; "r3" ] in
    Sim.run sim;
    let rc = Rlog_client.create ~rpc ~src:"client" ~replicas:[ "r1"; "r2"; "r3" ] () in
    let log = ref [] in
    for i = 1 to 5 do
      Rlog_client.append rc ~payload:(Printf.sprintf "p%d" i) (fun r ->
          log := (i, r) :: !log)
    done;
    ignore (Sim.schedule sim ~delay:(Sim.ms 3) (fun () ->
        Node.crash (Network.node net "r1")));
    ignore (Sim.schedule sim ~delay:(Sim.ms 40) (fun () ->
        Node.recover (Network.node net "r1")));
    Sim.run sim;
    (!log, List.map (fun (id, _) -> (id, Rlog.committed (rlog_of members id))) members,
     Sim.now sim)
  in
  check "two seeded runs identical" true (run () = run ())

(* --- elections under load --- *)

let elections_started sim =
  let log = ref [] in
  Event.subscribe (Sim.events sim) (fun ~at ~src:_ -> function
    | Event.Cons_election_started { node; term } -> log := (at, node, term) :: !log
    | _ -> ());
  log

(* Two clients append once per virtual ms for a second while the
   bootstrap leader is down from 200 to 400 ms. A replica that has just
   granted its vote must defer to its candidate: campaigning on the next
   urgent append would depose each new leader the moment it won, and the
   group would never settle. *)
let test_no_election_storm_under_load () =
  let ids = [ "r1"; "r2"; "r3" ] and clients = [ "c1"; "c2" ] in
  List.iter
    (fun seed ->
      let sim, net, rpc, members = make_group ~seed ~clients ids in
      let elections = elections_started sim in
      let acked = ref 0 and failed = ref 0 in
      List.iter
        (fun c ->
          let rc = Rlog_client.create ~rpc ~src:c ~replicas:ids () in
          for i = 0 to 999 do
            ignore
              (Sim.at sim ~time:(Sim.ms i) (fun () ->
                   Rlog_client.append rc ~payload:(Printf.sprintf "%s:%d" c i) (function
                     | Ok _ -> incr acked
                     | Error _ -> incr failed)))
          done)
        clients;
      let r1 = Network.node net "r1" in
      ignore (Sim.at sim ~time:(Sim.ms 200) (fun () -> Node.crash r1));
      ignore (Sim.at sim ~time:(Sim.ms 400) (fun () -> Node.recover r1));
      Sim.run ~until:(Sim.sec 3) sim;
      let label what = Printf.sprintf "seed %Ld: %s" seed what in
      check_int (label "appends failed") 0 !failed;
      check_int (label "appends acked") 2000 !acked;
      let n = List.length !elections in
      if n > 10 then Alcotest.failf "seed %Ld: %d elections started (at most 10)" seed n;
      Sim.run sim;
      let c1 = Rlog.committed (rlog_of members "r1") in
      check (label "committed prefixes identical") true
        (List.for_all (fun id -> Rlog.committed (rlog_of members id) = c1) ids))
    [ 1L; 2L; 3L; 4L; 5L ]

(* r2 campaigns out of r1's reach; r3 grants its vote, and r2 crashes
   before the grant arrives. r3 presumes r2 leads, so an urgent append
   there must first find r2 dead, then campaign; r1 and r3 elect. *)
let test_voter_campaigns_when_candidate_dead () =
  let sim, net, rpc, members = make_group [ "r1"; "r2"; "r3" ] in
  Sim.run sim;
  let elections = elections_started sim in
  let r3 = rlog_of members "r3" in
  Network.partition_on net "r1" "r2";
  Rlog.start_election (rlog_of members "r2");
  while Rlog.current_term r3 < 2 && Sim.step sim do
    ()
  done;
  Node.crash (Network.node net "r2");
  Network.partition_off net "r1" "r2";
  check "r3 voted in term 2, knows no leader" true
    (Rlog.current_term r3 = 2 && Rlog.leader_hint r3 = None);
  let t0 = Sim.now sim in
  let reply = ref None in
  Rpc.call rpc ~src:"client" ~dst:"r3" ~service:Rlog.service_append
    ~body:(Wire.(run (b_pair b_bool b_string)) (true, "x"))
    (fun r -> reply := Some r);
  Sim.run sim;
  check "client told to retry" true
    (!reply = Some (Ok (Wire.(run (b_pair b_string b_string)) ("electing", ""))));
  (match List.filter (fun (_, node, _) -> node = "r3") !elections with
  | [ (at, _, 3) ] ->
    check "r3 campaigned only after its probe of r2 timed out" true (at >= t0 + Sim.ms 5)
  | _ -> Alcotest.fail "expected one r3 campaign, for term 3");
  Alcotest.(check (list string)) "r3 leads" [ "r3" ] (leader_of members);
  let rc = Rlog_client.create ~rpc ~src:"client" ~replicas:[ "r1"; "r2"; "r3" ] () in
  let got = ref None in
  Rlog_client.append rc ~payload:"x" (fun r -> got := Some r);
  Sim.run sim;
  check "append committed" true (!got = Some (Ok "r:x"));
  check "survivors agree" true
    (Rlog.committed (rlog_of members "r1") = Rlog.committed r3
    && (machine_of members "r1").applied = [ "x" ])

(* r3 campaigns with r1 down; r2 grants, but the grant is lost to a
   partition, so r3 gives up after its bounded rounds while r2 still
   defers to it. Once the partition heals, the next client append must
   commit within the client's step budget. *)
let test_abandoned_candidate_does_not_wedge () =
  let sim, net, rpc, members = make_group [ "r1"; "r2"; "r3" ] in
  Sim.run sim;
  let r2 = rlog_of members "r2" and r3 = rlog_of members "r3" in
  Node.crash (Network.node net "r1");
  Rlog.start_election r3;
  while Rlog.current_term r2 < 2 && Sim.step sim do
    ()
  done;
  Network.partition_on net "r2" "r3";
  Sim.run sim;
  check "r3 gave up" true (Rlog.role r3 = Rlog.Follower && Rlog.current_term r3 > 2);
  check "r2 still waits on its term-2 vote" true
    (Rlog.current_term r2 = 2 && Rlog.leader_hint r2 = None);
  Network.partition_off net "r2" "r3";
  let rc = Rlog_client.create ~rpc ~src:"client" ~replicas:[ "r1"; "r2"; "r3" ] () in
  let got = ref None in
  Rlog_client.append rc ~payload:"x" (fun r -> got := Some r);
  Sim.run sim;
  check "append committed" true (!got = Some (Ok "r:x"));
  Node.recover (Network.node net "r1");
  Sim.run sim;
  check "all three agree" true
    (List.for_all
       (fun id -> Rlog.committed (rlog_of members id) = Rlog.committed r3)
       [ "r1"; "r2" ]
    && (machine_of members "r1").applied = [ "x" ])

(* --- untrusted bytes at the consensus services --- *)

(* Request and reply shapes of the four cons.* services, mirrored here
   so the property can tell a body that decodes from one that does
   not. Only [Malformed] counts as "does not decode": any other
   exception from a decoder fails the property. *)
let decodes service body =
  let open Wire in
  let ok d = match decode d body with exception Malformed _ -> false | _ -> true in
  if service = Rlog.service_replicate then
    ok (d_pair (d_triple d_int d_string d_int) (d_triple d_int (d_list (d_pair d_int d_string)) d_int))
  else if service = Rlog.service_vote then ok (d_pair (d_pair d_int d_string) (d_pair d_int d_int))
  else if service = Rlog.service_ping then ok d_string
  else ok (d_pair d_bool d_string)

let reply_well_formed service reply =
  let open Wire in
  let ok d = match decode d reply with exception Malformed _ -> false | _ -> true in
  if service = Rlog.service_replicate then ok (d_triple d_int d_bool d_int)
  else if service = Rlog.service_vote then ok (d_pair d_int d_bool)
  else if service = Rlog.service_ping then ok (d_triple d_int (d_option d_string) d_int)
  else
    match decode (d_pair d_string d_string) reply with
    | exception Malformed _ -> false
    | tag, _ -> List.mem tag [ "ok"; "redirect"; "electing"; "noleader"; "err" ]

let gen_fuzz_case =
  let open QCheck.Gen in
  let term = int_range (-2) 6 and id = oneofl [ "r1"; "r2"; "r3"; "zz"; "" ] in
  let payload = string_size ~gen:printable (int_bound 8) in
  let well_formed service =
    if service = Rlog.service_replicate then
      map
        Wire.(
          run
            (b_pair
               (b_triple b_int b_string b_int)
               (b_triple b_int (b_list (b_pair b_int b_string)) b_int)))
        (pair (triple term id term)
           (triple term (list_size (int_bound 3) (pair term payload)) term))
    else if service = Rlog.service_vote then
      map
        Wire.(run (b_pair (b_pair b_int b_string) (b_pair b_int b_int)))
        (pair (pair term id) (pair term term))
    else if service = Rlog.service_ping then map Wire.(run b_string) id
    else map Wire.(run (b_pair b_bool b_string)) (pair bool payload)
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
        (* 19- and 20-digit length headers at or near max_int once parsed *)
        ( 1,
          map
            (fun h -> h ^ ":" ^ body)
            (oneofl [ "4611686018427387903"; "4611686018427387890"; "13835058055282163700" ]) );
      ]
  in
  oneofl [ Rlog.service_replicate; Rlog.service_vote; Rlog.service_ping; Rlog.service_append ]
  >>= fun service ->
  oneofl [ "r1"; "r2" ] >>= fun target ->
  well_formed service >>= mutate >|= fun body -> (service, target, body)

let fuzz_qcheck =
  QCheck.Test.make ~name:"cons.* handlers survive mutated bodies" ~count:300
    (QCheck.make gen_fuzz_case ~print:(fun (service, target, body) ->
         Printf.sprintf "%s -> %s: %S" service target body))
    (fun (service, target, body) ->
      let sim, _, rpc, members = make_group [ "r1"; "r2"; "r3" ] in
      Sim.run sim;
      let r = rlog_of members target in
      let state () = (Rlog.current_term r, Rlog.log_length r, Rlog.commit_index r) in
      let before = state () in
      let decodes = decodes service body in
      let result = ref None in
      Rpc.call rpc ~src:"client" ~dst:target ~service ~body (fun res -> result := Some res);
      (match Sim.run ~until:(Sim.now sim + Sim.sec 5) sim with
      | exception e -> QCheck.Test.fail_reportf "escaped Sim.step: %s" (Printexc.to_string e)
      | () -> ());
      match !result with
      | None -> QCheck.Test.fail_report "call never completed"
      | Some (Ok reply) when decodes -> reply_well_formed service reply
      | Some (Ok _) -> QCheck.Test.fail_report "undecodable body got a reply"
      | Some (Error e) when decodes -> QCheck.Test.fail_reportf "decodable body failed: %s" e
      | Some (Error _) -> state () = before)

let () =
  Alcotest.run "consensus"
    [
      ( "rlog",
        [
          Alcotest.test_case "bootstrap elects lowest rank" `Quick
            test_bootstrap_elects_lowest_rank;
          Alcotest.test_case "append replicates to all" `Quick test_append_replicates_to_all;
          Alcotest.test_case "leader crash: failover + catch-up" `Quick
            test_leader_crash_failover_and_catchup;
          Alcotest.test_case "partitioned leader deposed, log converges" `Quick
            test_partitioned_leader_deposed_and_truncated;
          Alcotest.test_case "no electable leader: bounded, drains" `Quick
            test_no_quorum_append_bounded;
          Alcotest.test_case "same payload twice = two entries" `Quick
            test_duplicate_cid_applies_once;
          Alcotest.test_case "single-replica group" `Quick test_single_replica_group;
          Alcotest.test_case "same seed, same run" `Quick test_determinism_same_seed;
          Alcotest.test_case "no election storm under load" `Quick
            test_no_election_storm_under_load;
          Alcotest.test_case "voter campaigns when its candidate is dead" `Quick
            test_voter_campaigns_when_candidate_dead;
          Alcotest.test_case "abandoned candidate does not wedge" `Quick
            test_abandoned_candidate_does_not_wedge;
        ] );
      ("wire", [ QCheck_alcotest.to_alcotest fuzz_qcheck ]);
    ]
