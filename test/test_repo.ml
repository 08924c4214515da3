(* Tests for the workflow repository service: validated storage,
   versioning, inspection, crash durability, and the RPC client
   (including launch-from-repository). *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let make () =
  let tb = Testbed.make ~nodes:[ "n0"; "repo" ] () in
  let repo = Repository.create ~rpc:tb.Testbed.rpc ~node:(Testbed.node tb "repo") in
  let client = Repo_client.create ~rpc:tb.Testbed.rpc ~src:"n0" ~repo_node:"repo" in
  (tb, repo, client)

let store_ok repo ~name ~source =
  match Repository.store repo ~name ~source with
  | Ok v -> v
  | Error e -> Alcotest.failf "store: %s" e

let test_store_and_fetch () =
  let _, repo, _ = make () in
  let v = store_ok repo ~name:"order" ~source:Paper_scripts.process_order in
  check_int "first version" 1 v;
  match Repository.fetch repo ~name:"order" () with
  | Ok source -> check "same source" true (source = Paper_scripts.process_order)
  | Error e -> Alcotest.failf "fetch: %s" e

let test_store_rejects_invalid () =
  let _, repo, _ = make () in
  match Repository.store repo ~name:"bad" ~source:"task t of taskclass Missing { }" with
  | Error _ -> check "rejected" true (Repository.head repo ~name:"bad" = None)
  | Ok _ -> Alcotest.fail "invalid script accepted"

let test_versioning () =
  let _, repo, _ = make () in
  ignore (store_ok repo ~name:"s" ~source:Paper_scripts.quickstart);
  let v2 = store_ok repo ~name:"s" ~source:Paper_scripts.process_order in
  check_int "second version" 2 v2;
  Alcotest.(check (list int)) "history" [ 1; 2 ] (Repository.history repo ~name:"s");
  (match Repository.fetch repo ~name:"s" ~version:1 () with
  | Ok source -> check "old version intact" true (source = Paper_scripts.quickstart)
  | Error e -> Alcotest.failf "fetch v1: %s" e);
  match Repository.fetch repo ~name:"s" () with
  | Ok source -> check "head is v2" true (source = Paper_scripts.process_order)
  | Error e -> Alcotest.failf "fetch head: %s" e

let test_list_and_inspect () =
  let _, repo, _ = make () in
  ignore (store_ok repo ~name:"order" ~source:Paper_scripts.process_order);
  ignore (store_ok repo ~name:"trip" ~source:Paper_scripts.business_trip);
  Alcotest.(check (list string)) "names sorted" [ "order"; "trip" ] (Repository.list_names repo);
  match Repository.inspect repo ~name:"trip" with
  | Ok s ->
    check_int "head" 1 s.Repository.s_head;
    Alcotest.(check (list string)) "roots" [ "tripReservation" ] s.Repository.s_roots;
    check_int "task count" 11 s.Repository.s_task_count
  | Error e -> Alcotest.failf "inspect: %s" e

let test_crash_durability () =
  let tb, repo, _ = make () in
  ignore (store_ok repo ~name:"order" ~source:Paper_scripts.process_order);
  Testbed.crash tb "repo";
  check "unavailable while down" true
    (match Repository.fetch repo ~name:"order" () with
    | exception Kvstore.Unavailable _ -> true
    | _ -> false);
  Testbed.recover tb "repo";
  match Repository.fetch repo ~name:"order" () with
  | Ok source -> check "script survived the crash" true (source = Paper_scripts.process_order)
  | Error e -> Alcotest.failf "fetch after recovery: %s" e

let test_corrupt_head_fails_loudly () =
  (* a damaged head record must not be mistaken for "no such script" *)
  let _, repo, _ = make () in
  ignore (store_ok repo ~name:"order" ~source:Paper_scripts.process_order);
  Kvstore.put (Repository.internal_store repo) "head:order" "not-a-number";
  check "corrupt head raises" true
    (match Repository.head repo ~name:"order" with
    | exception Invalid_argument msg ->
      (* the error names the script and the bad payload *)
      let contains needle =
        let nl = String.length needle and ml = String.length msg in
        let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
        go 0
      in
      contains "order" && contains "not-a-number"
    | _ -> false);
  check "absent head is still just None" true (Repository.head repo ~name:"ghost" = None)

(* --- the placement directory --- *)

let test_placement_directory () =
  let tb, repo, client = make () in
  check "no owner yet" true (Repository.owner repo ~iid:"wf-1" = None);
  Repository.assign repo ~iid:"wf-1" ~engine:"e1";
  Repository.assign repo ~iid:"wf-2" ~engine:"e2";
  check "owner recorded" true (Repository.owner repo ~iid:"wf-1" = Some "e1");
  check "directory sorted" true
    (Repository.placements repo = [ ("wf-1", "e1"); ("wf-2", "e2") ]);
  (* re-assignment (e.g. after migration) overwrites *)
  Repository.assign repo ~iid:"wf-1" ~engine:"e3";
  check "reassigned" true (Repository.owner repo ~iid:"wf-1" = Some "e3");
  (* the same directory, over RPC from another node *)
  let assigned = ref None in
  Repo_client.assign client ~iid:"wf-3" ~engine:"e1" (fun r -> assigned := Some r);
  Testbed.run tb;
  check "assign over rpc" true (!assigned = Some (Ok ()));
  let owner = ref None in
  Repo_client.owner client ~iid:"wf-3" (fun r -> owner := Some r);
  let missing = ref None in
  Repo_client.owner client ~iid:"nope" (fun r -> missing := Some r);
  let listing = ref None in
  Repo_client.placements client (fun r -> listing := Some r);
  Testbed.run tb;
  check "owner over rpc" true (!owner = Some (Ok (Some "e1")));
  check "missing owner is None over rpc" true (!missing = Some (Ok None));
  check "listing over rpc" true
    (!listing = Some (Ok [ ("wf-1", "e3"); ("wf-2", "e2"); ("wf-3", "e1") ]))

let test_placement_survives_crash () =
  let tb, repo, _ = make () in
  Repository.assign repo ~iid:"wf-9" ~engine:"e2";
  Testbed.crash tb "repo";
  Testbed.recover tb "repo";
  check "assignment durable across repo crash" true
    (Repository.owner repo ~iid:"wf-9" = Some "e2")

let test_client_roundtrip () =
  let tb, _, client = make () in
  let stored = ref None in
  Repo_client.store client ~name:"order" ~source:Paper_scripts.process_order (fun r ->
      stored := Some r);
  Testbed.run tb;
  check "stored over rpc" true (!stored = Some (Ok 1));
  let names = ref None in
  Repo_client.list_names client (fun r -> names := Some r);
  let summary = ref None in
  Repo_client.inspect client ~name:"order" (fun r -> summary := Some r);
  let fetched = ref None in
  Repo_client.fetch client ~name:"order" (fun r -> fetched := Some r);
  Testbed.run tb;
  check "listed" true (!names = Some (Ok [ "order" ]));
  (match !summary with
  | Some (Ok s) -> check_int "five tasks" 5 s.Repository.s_task_count
  | _ -> Alcotest.fail "inspect over rpc failed");
  match !fetched with
  | Some (Ok source) -> check "fetched" true (source = Paper_scripts.process_order)
  | _ -> Alcotest.fail "fetch over rpc failed"

let test_client_error_for_unknown () =
  let tb, _, client = make () in
  let result = ref None in
  Repo_client.fetch client ~name:"ghost" (fun r -> result := Some r);
  Testbed.run tb;
  check "error surfaced" true (match !result with Some (Error _) -> true | _ -> false)

let test_launch_from_repo () =
  let tb, repo, client = make () in
  Impls.register_process_order ~scenario:Impls.order_ok tb.Testbed.registry;
  ignore (store_ok repo ~name:"order" ~source:Paper_scripts.process_order);
  let launched = ref None in
  Repo_client.launch client ~engine:tb.Testbed.engine ~name:"order"
    ~root:Paper_scripts.process_order_root
    ~inputs:[ ("order", Value.obj ~cls:"Order" (Value.Str "o1")) ]
    (fun r -> launched := Some r);
  Testbed.run tb;
  match !launched with
  | Some (Ok iid) -> (
    match Engine.status tb.Testbed.engine iid with
    | Some (Wstate.Wf_done { output; _ }) -> Alcotest.(check string) "outcome" "orderCompleted" output
    | other ->
      Alcotest.failf "status: %s"
        (match other with Some s -> Format.asprintf "%a" Wstate.pp_status s | None -> "none"))
  | Some (Error e) -> Alcotest.failf "launch: %s" e
  | None -> Alcotest.fail "launch never completed"

(* --- the replicated repository --- *)

let make_replicated () =
  let tb = Testbed.make ~nodes:[ "n0"; "r1"; "r2"; "r3" ] () in
  let group =
    Repo_group.create ~rpc:tb.Testbed.rpc
      ~nodes:(List.map (Testbed.node tb) [ "r1"; "r2"; "r3" ])
  in
  (* let the bootstrap election settle before the first client call *)
  Testbed.run tb;
  let client =
    Repo_client.create_replicated ~rpc:tb.Testbed.rpc ~src:"n0"
      ~replicas:[ "r1"; "r2"; "r3" ] ()
  in
  (tb, group, client)

let test_replicated_corrupt_head_fails_loudly () =
  (* the loud-corruption contract survives the move onto the replicated
     log: a damaged head record raises on the damaged member and must
     not be mistaken for "no such script" — while the other members,
     whose backings are independent, keep answering *)
  let tb, group, client = make_replicated () in
  let stored = ref None in
  Repo_client.store client ~name:"order" ~source:Paper_scripts.process_order (fun r ->
      stored := Some r);
  Testbed.run tb;
  check "stored through the log" true (!stored = Some (Ok 1));
  let leader =
    match Repo_group.leader group with
    | Some l -> l
    | None -> Alcotest.fail "no leader after bootstrap"
  in
  let victim = Repo_group.replica group leader in
  Kvstore.put (Repository.internal_store victim) "head:order" "not-a-number";
  check "corrupt head raises on the damaged member" true
    (match Repository.head victim ~name:"order" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  List.iter
    (fun id ->
      if id <> leader then
        check ("head intact on " ^ id) true
          (Repository.head (Repo_group.replica group id) ~name:"order" = Some 1))
    (Repo_group.nodes group)

let test_replicated_redirect_loop_bounded () =
  (* majority down for good: no leader is electable, so the client's
     leader-discovery / redirect loop must give up with an error and
     leave no retry timers behind — not bounce between the survivors
     forever *)
  let tb, group, client = make_replicated () in
  ignore group;
  Testbed.crash tb "r1";
  Testbed.crash tb "r2";
  let assigned = ref None in
  Repo_client.assign client ~iid:"wf-1" ~engine:"e1" (fun r -> assigned := Some r);
  Testbed.run tb;
  check "mutation bounded with an error" true
    (match !assigned with Some (Error _) -> true | _ -> false);
  check_int "simulator drained" 0 (Sim.pending tb.Testbed.sim);
  (* reads need no quorum: the lone survivor still answers, and the
     failed mutation left no trace in the directory *)
  let owner = ref None in
  Repo_client.owner client ~iid:"wf-1" (fun r -> owner := Some r);
  Testbed.run tb;
  check "read served by the survivor" true (!owner = Some (Ok None))

(* --- undecodable replicated commands --- *)

(* [Some msg] when a repository reply is the error arm of a result *)
let reply_error reply =
  match Wire.(decode (d_result d_int)) reply with
  | Error e -> Some e
  | Ok _ | (exception Wire.Malformed _) -> None

let is_malformed_reply reply =
  match reply_error reply with
  | Some e -> String.starts_with ~prefix:"malformed repository command" e
  | None -> false

let store_rows repo =
  Kvstore.fold (Repository.internal_store repo) ~init:[] ~f:(fun acc k v -> (k, v) :: acc)
  |> List.sort compare

let test_replicated_malformed_command () =
  (* any client can append any bytes to the log: an undecodable command
     must commit as a deterministic error reply on every replica, not
     raise out of the simulator and wedge the group on every replay *)
  let tb, group, _ = make_replicated () in
  let rc = Rlog_client.create ~rpc:tb.Testbed.rpc ~src:"n0" ~replicas:[ "r1"; "r2"; "r3" ] () in
  let garbage = ref None in
  Rlog_client.append rc ~payload:"garbage" (fun r -> garbage := Some r);
  Testbed.run tb;
  (match !garbage with
  | Some (Ok reply) -> check "garbage answered with an error" true (is_malformed_reply reply)
  | Some (Error e) -> Alcotest.failf "append failed: %s" e
  | None -> Alcotest.fail "garbage append never answered");
  let rows id = store_rows (Repo_group.replica group id) in
  List.iter
    (fun id -> check ("garbage wrote nothing on " ^ id) true (rows id = []))
    (Repo_group.nodes group);
  (* the log keeps going: a valid command after it commits and applies *)
  let assigned = ref None in
  Rlog_client.append rc
    ~payload:(Repository.cmd_assign ~cid:"c1" ~iid:"wf-1" ~engine:"e1")
    (fun r -> assigned := Some r);
  Testbed.run tb;
  check "valid command applied" true (!assigned = Some (Ok (Wire.(run b_bool) true)));
  List.iter
    (fun id ->
      check ("owner on " ^ id) true
        (Repository.owner (Repo_group.replica group id) ~iid:"wf-1" = Some "e1");
      check ("replica " ^ id ^ " matches r1") true (rows id = rows "r1"))
    (Repo_group.nodes group)

(* Truncations, bit flips and splices of well-formed commands: whatever
   the bytes, [apply_command] returns a reply, and a command it cannot
   decode leaves the store exactly as it was. *)
let commands =
  [|
    Repository.cmd_store ~cid:"c1" ~name:"quick" ~source:Paper_scripts.quickstart;
    Repository.cmd_assign ~cid:"c2" ~iid:"wf-1" ~engine:"e1";
    Repository.cmd_assign_batch ~cid:"c3" ~pairs:[ ("wf-2", "e1"); ("wf-3", "e2") ];
  |]

let mutate ((which, other), (pos, arg, kind)) =
  let pick i = commands.(i mod Array.length commands) in
  let cmd = pick which in
  let n = String.length cmd in
  let at = pos mod (n + 1) in
  match kind mod 3 with
  | 0 -> String.sub cmd 0 at
  | 1 when at < n ->
    let b = Bytes.of_string cmd in
    Bytes.set b at (Char.chr (Char.code cmd.[at] lxor (1 lsl (arg mod 8))));
    Bytes.to_string b
  | 1 -> cmd
  | _ ->
    let donor = pick other in
    let from = arg mod String.length donor in
    String.sub cmd 0 at ^ String.sub donor from (String.length donor - from)

let mutated_command_qcheck =
  QCheck.Test.make ~name:"mutated replicated commands never raise" ~count:500
    QCheck.(
      map mutate
        (pair (pair small_nat small_nat)
           (triple (int_bound 1_000_000) (int_bound 1_000_000) small_nat)))
    (fun cmd ->
      let repo = Repository.create_backing ~node:(Node.create ~id:"repo") in
      Repository.assign repo ~iid:"wf-0" ~engine:"e0";
      let before = store_rows repo in
      match Repository.apply_command repo cmd with
      | reply -> (not (is_malformed_reply reply)) || store_rows repo = before
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "repo"
    [
      ( "service",
        [
          Alcotest.test_case "store and fetch" `Quick test_store_and_fetch;
          Alcotest.test_case "rejects invalid" `Quick test_store_rejects_invalid;
          Alcotest.test_case "versioning" `Quick test_versioning;
          Alcotest.test_case "list and inspect" `Quick test_list_and_inspect;
          Alcotest.test_case "crash durability" `Quick test_crash_durability;
          Alcotest.test_case "corrupt head fails loudly" `Quick test_corrupt_head_fails_loudly;
        ] );
      ( "placement",
        [
          Alcotest.test_case "directory" `Quick test_placement_directory;
          Alcotest.test_case "durable across crash" `Quick test_placement_survives_crash;
        ] );
      ( "client",
        [
          Alcotest.test_case "roundtrip" `Quick test_client_roundtrip;
          Alcotest.test_case "unknown name" `Quick test_client_error_for_unknown;
          Alcotest.test_case "launch from repo" `Quick test_launch_from_repo;
        ] );
      ( "replicated",
        [
          Alcotest.test_case "corrupt head fails loudly" `Quick
            test_replicated_corrupt_head_fails_loudly;
          Alcotest.test_case "redirect loop bounded without quorum" `Quick
            test_replicated_redirect_loop_bounded;
          Alcotest.test_case "malformed command answered, not raised" `Quick
            test_replicated_malformed_command;
          QCheck_alcotest.to_alcotest mutated_command_qcheck;
        ] );
    ]
