(* Tests for the simulated network: wire codec, datagram semantics
   (latency, loss, partitions, crashes) and the RPC layer (timeout,
   retry, de-duplication). *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let make_net ?(config = Network.default_config) ?(seed = 5L) ids =
  let sim = Sim.create ~seed () in
  let net = Network.create ~config sim in
  let nodes = List.map (fun id -> Network.add_node net ~id) ids in
  (sim, net, nodes)

(* --- Wire --- *)

let test_wire_roundtrips () =
  let enc = Wire.(run (b_triple b_string (b_list b_int) (b_option b_bool))) in
  let dec = Wire.(decode (d_triple d_string (d_list d_int) (d_option d_bool))) in
  let value = ("hello:world:3:", [ 1; -2; 30 ], Some true) in
  check "roundtrip" true (dec (enc value) = value)

let test_wire_rejects_garbage () =
  let attempt input = match Wire.(decode d_string) input with exception Wire.Malformed _ -> true | _ -> false in
  check "no separator" true (attempt "abc");
  check "bad length" true (attempt "x:abc");
  check "truncated" true (attempt "10:ab");
  check "trailing" true (attempt "1:ab")

let test_wire_rejects_extreme_lengths () =
  let attempt input = match Wire.(decode d_string) input with exception Wire.Malformed _ -> true | _ -> false in
  check "negative length" true (attempt "-3:abc");
  check "length far past the buffer" true (attempt "999999999:ab");
  check "length overflowing int parsing" true (attempt "99999999999999999999:ab");
  check "length wrapping to max_int" true (attempt "4611686018427387903:ab");
  check "wrapped int length" true
    (match Wire.(decode d_int) "4611686018427387890:1" with
    | exception Wire.Malformed _ -> true
    | _ -> false);
  check "empty input" true (attempt "");
  check "negative list count" true
    (match Wire.(decode (d_list d_int)) (Wire.(run b_int) (-1)) with
    | exception Wire.Malformed _ -> true
    | _ -> false)

(* --- Value codec over the wire --- *)

let test_value_roundtrips () =
  let v =
    Value.(List [ Pair (Int 42, Str "a:b:c"); Bool false; Unit; List [ Str "" ] ])
  in
  check "value roundtrip" true (Value.decode (Value.encode v) = v);
  let o = Value.obj ~cls:"Payment" (Value.Str "visa") in
  check "obj roundtrip" true (Value.decode_obj (Value.encode_obj o) = o)

let test_value_rejects_malformed () =
  let rejects s = match Value.decode s with exception Wire.Malformed _ -> true | _ -> false in
  let tag = Wire.(run b_string) and tag_int = Wire.(run (b_pair b_string b_int)) in
  check "unknown tag" true (rejects (tag "z"));
  check "unknown tag with payload" true (rejects (tag_int ("q", 3)));
  check "int tag, truncated payload" true (rejects (tag "i"));
  check "pair tag, one element missing" true (rejects (tag "p" ^ Value.encode Value.Unit));
  check "list with short count" true (rejects (tag_int ("l", 2) ^ Value.encode Value.Unit));
  check "trailing bytes after a full value" true (rejects (Value.encode Value.Unit ^ "x"));
  (* truncating a valid frame at any byte must raise, never succeed *)
  let full = Value.encode (Value.Pair (Value.Int 7, Value.Str "hello")) in
  for cut = 0 to String.length full - 1 do
    check
      (Printf.sprintf "truncated at %d" cut)
      true
      (rejects (String.sub full 0 cut))
  done

let prop_wire_string_roundtrip =
  QCheck.Test.make ~name:"wire strings roundtrip (incl. separators)" ~count:300
    QCheck.(string)
    (fun s -> Wire.(decode d_string) (Wire.(run b_string) s) = s)

let prop_wire_list_roundtrip =
  QCheck.Test.make ~name:"wire lists of pairs roundtrip" ~count:200
    QCheck.(list (pair string small_int))
    (fun l ->
      let enc = Wire.(run (b_list (b_pair b_string b_int))) in
      Wire.(decode (d_list (d_pair d_string d_int))) (enc l) = l)

(* --- reused-buffer encoder paths --- *)

(* Wire.run reuses one scratch buffer per domain. An embed that frames
   a sub-encoding through run nests it (the in-use fallback path);
   consecutive calls must not leak bytes from one encoding into the
   next; and [b_int]'s direct decimal emission must agree with the
   string framing. *)

let test_wire_scratch_reuse_is_clean () =
  let long = String.make 300 'x' in
  let a = Wire.(run b_string) long in
  let b = Wire.(run b_string) "short" in
  check "second encode unpolluted by first" true (Wire.(decode d_string) b = "short");
  check "first encode intact" true (Wire.(decode d_string) a = long);
  (* an embed that frames a sub-encoding inside run: the outer run
     holds the scratch, the inner one takes the fresh-buffer fallback *)
  let inner = Wire.(b_pair (b_list (b_pair b_string b_int)) (b_option b_string)) in
  let enc =
    Wire.run (fun buf v ->
        Wire.b_string buf (Wire.run inner v);
        Wire.b_string buf "after")
  in
  let v = ([ ("a:b", 7); ("", -1); (long, max_int) ], Some "tail") in
  let framed, after = Wire.(decode (d_pair d_string d_string)) (enc v) in
  check "nested embed roundtrip" true
    (Wire.(decode (d_pair (d_list (d_pair d_string d_int)) (d_option d_string))) framed = v
    && after = "after")

let prop_wire_int_direct_decimal =
  QCheck.Test.make ~name:"b_int direct decimal matches string framing" ~count:500
    QCheck.(oneof [ int; int_range (-1000) 1000 ])
    (fun n ->
      let encoded = Wire.(run b_int) n in
      encoded = Wire.(run b_string) (string_of_int n) && Wire.(decode d_int) encoded = n)

let prop_wire_repeated_runs_independent =
  QCheck.Test.make ~name:"scratch reuse: encode twice = encode once" ~count:200
    QCheck.(pair string (list small_int))
    (fun (s, l) ->
      let enc () = Wire.(run (b_pair b_string (b_list b_int))) (s, l) in
      let first = enc () in
      let second = enc () in
      first = second && Wire.(decode (d_pair d_string (d_list d_int))) second = (s, l))

(* Two domains encoding concurrently must not share scratch bytes (the
   scratch is domain-local storage). *)
let test_wire_scratch_domain_isolated () =
  let rounds = 2000 in
  let encode_round i =
    let payload = Printf.sprintf "payload-%d-%s" i (String.make (i mod 50) 'y') in
    Wire.(decode d_string) (Wire.(run b_string) payload) = payload
  in
  let other = Domain.spawn (fun () ->
      let ok = ref true in
      for i = 0 to rounds - 1 do
        if not (encode_round i) then ok := false
      done;
      !ok)
  in
  let mine = ref true in
  for i = 0 to rounds - 1 do
    if not (encode_round (i + 7)) then mine := false
  done;
  check "spawned domain encodes cleanly" true (Domain.join other);
  check "main domain encodes cleanly" true !mine

(* --- Network --- *)

let test_delivery_and_latency () =
  let sim, net, _ = make_net [ "a"; "b" ] in
  let got = ref None in
  Node.serve (Network.node net "b") ~service:"echo" (fun ~src body ->
      got := Some (src, body, Sim.now sim);
      "");
  Network.send net ~src:"a" ~dst:"b" ~service:"echo" ~body:"hi";
  Sim.run sim;
  (match !got with
  | Some (src, body, at) ->
    check "src" true (src = "a");
    check "body" true (body = "hi");
    check "latency >= base" true (at >= Network.default_config.base_latency)
  | None -> Alcotest.fail "message not delivered");
  check_int "delivered counter" 1 (Network.delivered_total net)

let test_loss_drops_everything () =
  let config = { Network.default_config with loss = 1.0 } in
  let sim, net, _ = make_net ~config [ "a"; "b" ] in
  let got = ref 0 in
  Node.serve (Network.node net "b") ~service:"s" (fun ~src:_ _ -> incr got; "");
  for _ = 1 to 20 do
    Network.send net ~src:"a" ~dst:"b" ~service:"s" ~body:""
  done;
  Sim.run sim;
  check_int "nothing delivered" 0 !got;
  check_int "all dropped" 20 (Network.dropped_total net)

let test_partition_blocks_and_heals () =
  let sim, net, _ = make_net [ "a"; "b" ] in
  let got = ref 0 in
  Node.serve (Network.node net "b") ~service:"s" (fun ~src:_ _ -> incr got; "");
  Network.partition_on net "a" "b";
  Network.send net ~src:"a" ~dst:"b" ~service:"s" ~body:"";
  Sim.run sim;
  check_int "blocked" 0 !got;
  Network.partition_off net "a" "b";
  Network.send net ~src:"a" ~dst:"b" ~service:"s" ~body:"";
  Sim.run sim;
  check_int "healed" 1 !got

let test_crashed_destination_drops () =
  let sim, net, _ = make_net [ "a"; "b" ] in
  let got = ref 0 in
  Node.serve (Network.node net "b") ~service:"s" (fun ~src:_ _ -> incr got; "");
  Node.crash (Network.node net "b");
  Network.send net ~src:"a" ~dst:"b" ~service:"s" ~body:"";
  Sim.run sim;
  check_int "dropped at crashed node" 0 !got

let test_crash_in_flight_drops_at_delivery () =
  let sim, net, _ = make_net [ "a"; "b" ] in
  let got = ref 0 in
  Node.serve (Network.node net "b") ~service:"s" (fun ~src:_ _ -> incr got; "");
  Network.send net ~src:"a" ~dst:"b" ~service:"s" ~body:"";
  (* crash b before the message arrives *)
  ignore (Sim.schedule sim ~delay:1 (fun () -> Node.crash (Network.node net "b")));
  Sim.run sim;
  check_int "in-flight message lost" 0 !got

let test_crashed_source_sends_nothing () =
  let sim, net, _ = make_net [ "a"; "b" ] in
  Node.crash (Network.node net "a");
  Network.send net ~src:"a" ~dst:"b" ~service:"s" ~body:"";
  Sim.run sim;
  check_int "nothing sent" 0 (Network.sent_total net)

let test_node_hooks_fire_once () =
  let _, net, _ = make_net [ "a" ] in
  let n = Network.node net "a" in
  let crashes = ref 0 and recoveries = ref 0 in
  Node.on_crash n (fun () -> incr crashes);
  Node.on_recover n (fun () -> incr recoveries);
  Node.crash n;
  Node.crash n;
  Node.recover n;
  Node.recover n;
  check_int "crash hook idempotent" 1 !crashes;
  check_int "recover hook idempotent" 1 !recoveries

let test_service_withdrawn () =
  let sim, net, _ = make_net [ "a"; "b" ] in
  let got = ref 0 in
  let b = Network.node net "b" in
  Node.serve b ~service:"s" (fun ~src:_ _ -> incr got; "");
  Node.withdraw b ~service:"s";
  Network.send net ~src:"a" ~dst:"b" ~service:"s" ~body:"";
  Sim.run sim;
  check_int "withdrawn service gets nothing" 0 !got

(* --- Rpc --- *)

let make_rpc ?config ?seed ?reply_cache_cap ids =
  let sim, net, nodes = make_net ?config ?seed ids in
  let rpc = Rpc.create ?reply_cache_cap net in
  List.iter (Rpc.attach rpc) nodes;
  (sim, net, rpc)

let test_rpc_call_ok () =
  let sim, _, rpc = make_rpc [ "a"; "b" ] in
  Node.serve (Network.node (Rpc.network rpc) "b") ~service:"double" (fun ~src:_ body -> body ^ body);
  let result = ref None in
  Rpc.call rpc ~src:"a" ~dst:"b" ~service:"double" ~body:"xy" (fun r -> result := Some r);
  Sim.run sim;
  check "reply" true (!result = Some (Ok "xyxy"))

let test_rpc_unknown_service_errors () =
  let sim, _, rpc = make_rpc [ "a"; "b" ] in
  let result = ref None in
  Rpc.call rpc ~src:"a" ~dst:"b" ~service:"nope" ~body:"" (fun r -> result := Some r);
  Sim.run sim;
  check "error" true (match !result with Some (Error _) -> true | _ -> false)

let test_rpc_handler_exception_is_error () =
  let sim, net, rpc = make_rpc [ "a"; "b" ] in
  Node.serve (Network.node net "b") ~service:"boom" (fun ~src:_ _ -> failwith "kaboom");
  let result = ref None in
  Rpc.call rpc ~src:"a" ~dst:"b" ~service:"boom" ~body:"" (fun r -> result := Some r);
  Sim.run sim;
  check "error carries exception" true
    (match !result with Some (Error e) -> String.length e > 0 | _ -> false)

let test_rpc_timeout_on_dead_destination () =
  let sim, net, rpc = make_rpc [ "a"; "b" ] in
  Node.crash (Network.node net "b");
  let result = ref None in
  Rpc.call rpc ~src:"a" ~dst:"b" ~service:"s" ~body:"" ~timeout:(Sim.ms 5) ~retries:2 (fun r ->
      result := Some r);
  Sim.run sim;
  check "timeout" true (!result = Some (Error "timeout"))

let test_rpc_retries_through_loss_execute_once () =
  (* 60% loss: retries must eventually get through, and dedup must keep
     the handler execution count at one per call. *)
  let config = { Network.default_config with loss = 0.6 } in
  let sim, net, rpc = make_rpc ~config ~seed:9L [ "a"; "b" ] in
  let m = Metrics.create () in
  Metrics.attach m (Sim.events sim);
  let executions = ref 0 in
  Node.serve (Network.node net "b") ~service:"inc" (fun ~src:_ _ ->
      incr executions;
      "done");
  let oks = ref 0 in
  for _ = 1 to 10 do
    Rpc.call rpc ~src:"a" ~dst:"b" ~service:"inc" ~body:"" ~timeout:(Sim.ms 4) ~retries:40
      (function Ok _ -> incr oks | Error _ -> ())
  done;
  Sim.run sim;
  check_int "all calls eventually succeed" 10 !oks;
  check_int "handler ran exactly once per call" 10 !executions;
  check "retries actually happened" true (Metrics.value m "events.rpc-retried" > 0)

let test_rpc_caller_crash_suppresses_callback () =
  let sim, net, rpc = make_rpc [ "a"; "b" ] in
  Node.serve (Network.node net "b") ~service:"s" (fun ~src:_ _ -> "r");
  let fired = ref false in
  Rpc.call rpc ~src:"a" ~dst:"b" ~service:"s" ~body:"" (fun _ -> fired := true);
  Node.crash (Network.node net "a");
  Sim.run sim;
  check "callback suppressed after caller crash" false !fired

(* A crashed caller forgets its calls, and their timeouts go with them:
   none stays queued until its deadline holding the call. *)
let test_rpc_caller_crash_cancels_timeouts () =
  let sim, net, rpc = make_rpc [ "a"; "b" ] in
  Node.crash (Network.node net "b");
  let fired = ref 0 in
  for _ = 1 to 3 do
    Rpc.call rpc ~src:"a" ~dst:"b" ~service:"s" ~body:"" ~timeout:(Sim.ms 50) (fun _ -> incr fired)
  done;
  (* the requests are dropped at the crashed destination *)
  Sim.run ~until:(Sim.ms 10) sim;
  check_int "one timeout queued per call" 3 (Sim.pending sim);
  Node.crash (Network.node net "a");
  check_int "the caller's crash cancels them" 0 (Sim.pending sim);
  Sim.run sim;
  check_int "no callback" 0 !fired

let test_rpc_reply_cache_bounded () =
  (* the dedup cache must not grow without bound: with a cap of 4,
     10 sequential requests evict the 6 oldest entries *)
  let sim, net, rpc = make_rpc ~reply_cache_cap:4 [ "a"; "b" ] in
  Node.serve (Network.node net "b") ~service:"s" (fun ~src:_ body -> body);
  for i = 1 to 10 do
    Rpc.call rpc ~src:"a" ~dst:"b" ~service:"s" ~body:(string_of_int i) (fun _ -> ())
  done;
  let m = Metrics.create () in
  Metrics.attach m (Sim.events sim);
  Sim.run sim;
  check_int "six evictions" 6 (Metrics.value m "rpc.reply_evictions")

let test_rpc_dedup_survives_small_cache () =
  (* retries under loss with a small-but-sufficient cache: dedup still
     holds (each in-flight request's reply stays cached until it ages
     out past the cap) *)
  let config = { Network.default_config with loss = 0.6 } in
  let sim, net, rpc = make_rpc ~config ~seed:9L ~reply_cache_cap:32 [ "a"; "b" ] in
  let executions = ref 0 in
  Node.serve (Network.node net "b") ~service:"inc" (fun ~src:_ _ ->
      incr executions;
      "done");
  let oks = ref 0 in
  for _ = 1 to 10 do
    Rpc.call rpc ~src:"a" ~dst:"b" ~service:"inc" ~body:"" ~timeout:(Sim.ms 4) ~retries:40
      (function Ok _ -> incr oks | Error _ -> ())
  done;
  Sim.run sim;
  check_int "all calls succeed" 10 !oks;
  check_int "exactly-once execution with a bounded cache" 10 !executions

(* --- loopback fast lane --- *)

let test_rpc_loopback_skips_network () =
  let sim, net, rpc = make_rpc [ "a"; "b" ] in
  Node.serve (Network.node net "a") ~service:"echo" (fun ~src:_ body -> body ^ body);
  let m = Metrics.create () in
  Metrics.attach m (Sim.events sim);
  let result = ref None in
  Rpc.call rpc ~src:"a" ~dst:"a" ~service:"echo" ~body:"lo" (fun r -> result := Some r);
  Sim.run sim;
  check "reply delivered" true (!result = Some (Ok "lolo"));
  check_int "no network traffic" 0 (Network.sent_total net);
  check_int "zero virtual latency" 0 (Sim.now sim);
  check_int "counted" 1 (Metrics.value m "rpc.loopback");
  check_int "still announced as rpc-sent" 1 (Metrics.value m "events.rpc-sent")

let test_rpc_loopback_on_partitioned_self () =
  (* a node partitioned from the rest of the fabric — even from itself
     at the network level — still reaches its own services *)
  let sim, net, rpc = make_rpc [ "a"; "b" ] in
  Node.serve (Network.node net "a") ~service:"s" (fun ~src:_ _ -> "here");
  Network.partition_on net "a" "b";
  Network.partition_on net "a" "a";
  let result = ref None in
  Rpc.call rpc ~src:"a" ~dst:"a" ~service:"s" ~body:"" (fun r -> result := Some r);
  Sim.run sim;
  check "self-call unaffected by partitions" true (!result = Some (Ok "here"))

let test_rpc_loopback_crashed_self_times_out () =
  (* a down node gets no loopback: the call takes the network path,
     whose send is suppressed at the crashed source, and times out
     without ever executing the handler *)
  let sim, net, rpc = make_rpc [ "a" ] in
  let m = Metrics.create () in
  Metrics.attach m (Sim.events sim);
  let executed = ref false in
  Node.serve (Network.node net "a") ~service:"s" (fun ~src:_ _ ->
      executed := true;
      "");
  Node.crash (Network.node net "a");
  let result = ref None in
  Rpc.call rpc ~src:"a" ~dst:"a" ~service:"s" ~body:"" ~timeout:(Sim.ms 5) ~retries:1 (fun r ->
      result := Some r);
  Sim.run sim;
  check "handler never ran" false !executed;
  check "timed out" true (!result = Some (Error "timeout"));
  check_int "no loopback counted" 0 (Metrics.value m "rpc.loopback")

let test_rpc_loopback_crash_before_delivery_suppresses_callback () =
  (* the loopback delivery is deferred; a crash in the same instant
     kills the pending call, so neither handler nor callback runs *)
  let sim, net, rpc = make_rpc [ "a" ] in
  let executed = ref false and fired = ref false in
  Node.serve (Network.node net "a") ~service:"s" (fun ~src:_ _ ->
      executed := true;
      "");
  Rpc.call rpc ~src:"a" ~dst:"a" ~service:"s" ~body:"" (fun _ -> fired := true);
  Node.crash (Network.node net "a");
  Sim.run sim;
  check "handler never ran" false !executed;
  check "callback suppressed" false !fired

(* A frame on an RPC envelope service that does not decode is dropped,
   as a lost frame is: nothing escapes the simulator, and the endpoint
   goes on serving calls. *)
let garbage_frame_dropped ~service ~src ~dst =
  let sim, net, rpc = make_rpc [ "a"; "b" ] in
  Node.serve (Network.node net "b") ~service:"double" (fun ~src:_ body -> body ^ body);
  Network.send net ~src ~dst ~service ~body:"garbage";
  (match Sim.run sim with
  | exception e ->
    Alcotest.failf "a garbage %s frame escaped Sim.run: %s" service (Printexc.to_string e)
  | () -> ());
  let result = ref None in
  Rpc.call rpc ~src:"a" ~dst:"b" ~service:"double" ~body:"xy" (fun r -> result := Some r);
  Sim.run sim;
  check "the next call is answered" true (!result = Some (Ok "xyxy"))

let test_rpc_garbage_request_dropped () =
  garbage_frame_dropped ~service:"$rpc.req" ~src:"a" ~dst:"b"

let test_rpc_garbage_response_dropped () =
  garbage_frame_dropped ~service:"$rpc.rsp" ~src:"b" ~dst:"a"

let test_rpc_invalid_cache_cap_rejected () =
  let sim = Sim.create ~seed:1L () in
  let net = Network.create sim in
  check "cap of zero is refused" true
    (match Rpc.create ~reply_cache_cap:0 net with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- wire-format golden --- *)

(* One encoded exemplar of every message and durable row kind, pinned
   byte for byte: a change to how encoders are written must leave each
   of them unchanged. Request and reply frames are taken off the RPC
   envelope services as a node receives them, so the client and service
   encoders are the ones the system runs. *)

let golden_objects =
  [
    ( "o",
      Value.obj ~cls:"C"
        Value.(List [ Unit; Bool true; Int (-3); Str "a:b"; Pair (Int 1, Str "") ]) );
  ]

(* Wraps the envelope services of [nodes]; the returned function lists
   the frames received so far as [("req"|"rsp") ^ " " ^ service, frame],
   for the services [keep] accepts. *)
let tap_frames ?(keep = fun _ -> true) nodes =
  let frames = ref [] in
  List.iter
    (fun node ->
      List.iter
        (fun (service, kind) ->
          match Node.handler node ~service with
          | None -> Alcotest.failf "%s not attached" (Node.id node)
          | Some h ->
            Node.serve node ~service (fun ~src body ->
                frames := (kind, body) :: !frames;
                h ~src body))
        [ ("$rpc.req", "req"); ("$rpc.rsp", "rsp") ])
    nodes;
  fun () ->
    let services = Hashtbl.create 16 in
    List.filter_map
      (fun (kind, frame) ->
        let req_id =
          if kind = "req" then begin
            let req_id, service, _ = Wire.(decode (d_triple d_string d_string d_string)) frame in
            Hashtbl.replace services req_id service;
            req_id
          end
          else
            let req_id, _, _ = Wire.(decode (d_triple d_string d_bool d_string)) frame in
            req_id
        in
        let service = Hashtbl.find services req_id in
        if keep service then Some (kind ^ " " ^ service, frame) else None)
      (List.rev !frames)

let rpc_exemplars () =
  let sim, net, _ = make_net [ "a"; "b" ] in
  let rpc = Rpc.create net in
  List.iter (fun id -> Rpc.attach rpc (Network.node net id)) [ "a"; "b" ];
  let b = Network.node net "b" in
  Node.serve b ~service:"echo" (fun ~src:_ body -> "pong:" ^ body);
  Node.serve b ~service:"boom" (fun ~src:_ _ -> failwith "bad");
  let frames = tap_frames [ Network.node net "a"; b ] in
  List.iter
    (fun service -> Rpc.call rpc ~src:"a" ~dst:"b" ~service ~body:"ping" (fun _ -> ()))
    [ "echo"; "boom" ];
  Sim.run sim;
  frames ()

let tiny_script =
  {|class D;
taskclass P { outputs { outcome ok { o of class D } } };
task a of taskclass P { implementation { "code" is "p" } };
|}

let repository_exemplars () =
  let sim, net, _ = make_net [ "repo"; "c" ] in
  let rpc = Rpc.create net in
  List.iter (fun id -> Rpc.attach rpc (Network.node net id)) [ "repo"; "c" ];
  let repo = Network.node net "repo" in
  let repository = Repository.create ~node:repo in
  let frames = tap_frames [ repo; Network.node net "c" ] in
  let client = Repo_client.create ~rpc ~src:"c" ~repo_node:"repo" in
  let ignore_k _ = () in
  Repo_client.store client ~name:"tiny" ~source:tiny_script ignore_k;
  Sim.run sim;
  Repo_client.store client ~name:"bad" ~source:"class" ignore_k;
  Repo_client.fetch client ~name:"tiny" ignore_k;
  Repo_client.fetch client ~name:"none" ~version:3 ignore_k;
  Repo_client.list_names client ignore_k;
  Repo_client.inspect client ~name:"tiny" ignore_k;
  (* recorded in-process: the owner and placements replies carry it *)
  Repository.assign repository ~iid:"wf-1" ~engine:"e1";
  Repo_client.assign_many client ~pairs:[ ("wf-2", "e1"); ("wf-3", "e2") ] ignore_k;
  Sim.run sim;
  Repo_client.owner client ~iid:"wf-1" ignore_k;
  Repo_client.owner client ~iid:"wf-9" ignore_k;
  Repo_client.placements client ignore_k;
  Sim.run sim;
  let backing = Repository.create_backing ~node:(Node.create ~id:"r") in
  let command label cmd =
    [ ("cmd " ^ label, cmd); ("reply " ^ label, Repository.apply_command backing cmd) ]
  in
  frames ()
  @ command "store" (Repository.command Repository.op_store ~cid:"c1" ("tiny", tiny_script))
  @ command "assign_batch"
      (Repository.command Repository.op_assign_batch ~cid:"c3" [ ("wf-2", "e1"); ("wf-3", "e2") ])
  @ command "unknown" (Wire.run Wire.(b_pair b_string b_string) ("drop", "c4"))

let rlog_exemplars () =
  let ids = [ "r1"; "r2"; "r3" ] in
  let sim = Sim.create ~seed:11L () in
  let net = Network.create sim in
  let rpc = Rpc.create net in
  let nodes = List.map (fun id -> Network.add_node net ~id) (ids @ [ "client" ]) in
  List.iter (Rpc.attach rpc) nodes;
  List.iter
    (fun node ->
      if Node.id node <> "client" then
        ignore
          (Rlog.create ~rpc ~node ~peers:ids ~apply:(fun p -> "r:" ^ p) ~reset:ignore ()))
    nodes;
  let frames = tap_frames ~keep:(String.starts_with ~prefix:"cons.") nodes in
  Sim.run sim;
  let rc = Rlog_client.create ~rpc ~src:"client" ~replicas:ids () in
  Rlog_client.append rc ~payload:"x" ignore;
  Sim.run sim;
  Node.crash (Network.node net "r3");
  Node.recover (Network.node net "r3");
  Sim.run sim;
  (* one exemplar per direction and service *)
  List.fold_left
    (fun acc (label, frame) -> if List.mem_assoc label acc then acc else acc @ [ (label, frame) ])
    [] (frames ())

let txrecord_exemplars () =
  [
    ( "prepare",
      Txrecord.enc_prepare_req ~txid:"n0:1:2" ~coordinator:"n0"
        ~writes:[ ("k1", Some "v:1"); ("k2", None) ] );
    ("vote yes", Txrecord.enc_vote true);
    ("vote no", Txrecord.enc_vote false);
    ("txid", Txrecord.enc_txid "n0:1:2");
    ("status committed", Txrecord.enc_status_reply `Committed);
    ("status aborted", Txrecord.enc_status_reply `Aborted);
    ("status pending", Txrecord.enc_status_reply `Pending);
  ]

let admin_exemplars () =
  let tb = Testbed.make ~nodes:[ "n0"; "console" ] () in
  Admin.serve tb.Testbed.engine;
  Impls.register_quickstart tb.Testbed.registry;
  let launch () =
    match
      Engine.launch tb.Testbed.engine ~script:Paper_scripts.quickstart
        ~root:Paper_scripts.quickstart_root
        ~inputs:[ ("seed", Value.obj ~cls:"Data" (Value.Int 7)) ]
    with
    | Ok iid -> iid
    | Error e -> Alcotest.failf "launch: %s" e
  in
  let finished = launch () in
  Testbed.run tb;
  let running = launch () in
  let frames =
    tap_frames ~keep:(String.starts_with ~prefix:"wf.admin.") tb.Testbed.nodes
  in
  let client = Admin.Client.create ~rpc:tb.Testbed.rpc ~src:"console" ~engine_node:"n0" in
  let ignore_k _ = () in
  Admin.Client.list_instances client ignore_k;
  Admin.Client.status client ~iid:"none" ignore_k;
  Admin.Client.status client ~iid:finished ignore_k;
  Admin.Client.status client ~iid:running ignore_k;
  Admin.Client.task_states client ~iid:finished ignore_k;
  Admin.Client.history client ~iid:finished ignore_k;
  Admin.Client.policy_budgets client ~iid:finished ignore_k;
  Admin.Client.cancel client ~iid:"none" ~reason:"console" ignore_k;
  Admin.Client.cancel client ~iid:running ~reason:"console" ignore_k;
  Testbed.run tb;
  Admin.Client.status client ~iid:running ignore_k;
  Testbed.run tb;
  frames ()

let wire_exemplars () =
  let rows =
    let iid = "i1" and objects = golden_objects in
    let meta m_status = { Wstate.m_script = "s"; m_root = "r"; m_inputs = objects; m_status } in
    Wstate.
      [
        Put (Dir, 3);
        Put (Meta, meta Wf_running);
        Put (Meta, meta (Wf_done { output = "ok"; objects }));
        Put (Meta, meta (Wf_failed "boom"));
        Put (Reconf, "rc");
        Put (Task "a/b", Waiting { attempt = 1 });
        Put (Task "a/b", Running { attempt = 2; set = "s1"; started = 10; deadline = 20 });
        Put (Task "a/b", Done { attempt = 1; output = "ok"; kind = Ast.Outcome; objects });
        Put (Task "a/b", Done { attempt = 1; output = "m"; kind = Ast.Mark; objects = [] });
        Put (Task "a/b", Failed "boom");
        Put (Chosen "a", { c_set = "s1"; c_inputs = objects });
        Put (Marks "a", [ ("m1", objects); ("m2", []) ]);
        Put (Repeat "a", ("again", objects));
        Put (Timer_fired ("a", "s1"), ());
        Put (Timer_armed ("a", "s1"), 42);
        Put (Backoff "a", (2, 500));
        Put (Compensated "a", ());
        Put (History 7, encode_history (5, "k", "d"));
        Delete (Task "a");
      ]
    |> List.map (fun row ->
           let key, value = Wstate.encode iid row in
           ("row " ^ key, Option.value value ~default:"<delete>"))
  in
  let exec =
    Wfmsg.enc_exec
      {
        Wfmsg.x_iid = "i1";
        x_path = [ "a"; "b" ];
        x_attempt = 1;
        x_code = "impl";
        x_set = "s1";
        x_inputs = golden_objects;
      }
  in
  let report =
    Wfmsg.enc_report
      {
        Wfmsg.r_iid = "i1";
        r_path = [ "a"; "b" ];
        r_attempt = 2;
        r_output = "ok";
        r_objects = List.map (fun (name, o) -> (name, o.Value.payload)) golden_objects;
      }
  in
  let section name = List.map (fun (label, bytes) -> (name ^ " " ^ label, bytes)) in
  rows
  @ [ ("wfmsg exec", exec); ("wfmsg report", report) ]
  @ section "rpc" (rpc_exemplars ())
  @ section "repo" (repository_exemplars ())
  @ section "rlog" (rlog_exemplars ())
  @ section "tx" (txrecord_exemplars ())
  @ section "admin" (admin_exemplars ())

let wire_golden =
  [
    ("row wf:dir:i1",
     "3");
    ("row wf:i1:meta",
     "1:s1:r53:1:11:o1:C1:l1:51:u1:b1:t1:i2:-31:s3:a:b1:p1:i1:11:s0:1:r");
    ("row wf:i1:meta",
     "1:s1:r53:1:11:o1:C1:l1:51:u1:b1:t1:i2:-31:s3:a:b1:p1:i1:11:s0:1:d2:ok53:1:11:o1:C1:l1:51:u1:b1:t1:i2:-31:s3:a:b1:p1:i1:11:s0:");
    ("row wf:i1:meta",
     "1:s1:r53:1:11:o1:C1:l1:51:u1:b1:t1:i2:-31:s3:a:b1:p1:i1:11:s0:1:f4:boom");
    ("row wf:i1:reconf",
     "rc");
    ("row wf:i1:t:a/b",
     "1:w1:1");
    ("row wf:i1:t:a/b",
     "1:x1:22:s12:102:20");
    ("row wf:i1:t:a/b",
     "1:d1:12:ok1:053:1:11:o1:C1:l1:51:u1:b1:t1:i2:-31:s3:a:b1:p1:i1:11:s0:");
    ("row wf:i1:t:a/b",
     "1:d1:11:m1:33:1:0");
    ("row wf:i1:t:a/b",
     "1:f4:boom");
    ("row wf:i1:c:a",
     "2:s153:1:11:o1:C1:l1:51:u1:b1:t1:i2:-31:s3:a:b1:p1:i1:11:s0:");
    ("row wf:i1:m:a",
     "1:22:m153:1:11:o1:C1:l1:51:u1:b1:t1:i2:-31:s3:a:b1:p1:i1:11:s0:2:m23:1:0");
    ("row wf:i1:r:a",
     "5:again53:1:11:o1:C1:l1:51:u1:b1:t1:i2:-31:s3:a:b1:p1:i1:11:s0:");
    ("row wf:i1:timer:a:s1",
     "1");
    ("row wf:i1:timerarm:a:s1",
     "42");
    ("row wf:i1:b:a",
     "1:23:500");
    ("row wf:i1:comp:a",
     "1");
    ("row wf:i1:h:000000007",
     "1:51:k1:d");
    ("row wf:i1:t:a",
     "<delete>");
    ("wfmsg exec",
     "2:i11:21:a1:b1:14:impl2:s153:1:11:o1:C1:l1:51:u1:b1:t1:i2:-31:s3:a:b1:p1:i1:11:s0:");
    ("wfmsg report",
     "2:i11:21:a1:b1:22:ok1:11:o44:1:l1:51:u1:b1:t1:i2:-31:s3:a:b1:p1:i1:11:s0:");
    ("rpc req echo",
     "3:a#14:echo4:ping");
    ("rpc req boom",
     "3:a#24:boom4:ping");
    ("rpc rsp echo",
     "3:a#11:t9:pong:ping");
    ("rpc rsp boom",
     "3:a#21:f14:Failure(\"bad\")");
    ("repo req repo.store",
     "3:c#110:repo.store136:4:tiny126:class D;\ntaskclass P { outputs { outcome ok { o of class D } } };\ntask a of taskclass P { implementation { \"code\" is \"p\" } };\n");
    ("repo rsp repo.store",
     "3:c#11:t6:1:t1:1");
    ("repo req repo.inspect",
     "3:c#612:repo.inspect6:4:tiny");
    ("repo req repo.assign_batch",
     "3:c#717:repo.assign_batch23:1:24:wf-22:e14:wf-32:e2");
    ("repo req repo.store",
     "3:c#210:repo.store12:3:bad5:class");
    ("repo req repo.list",
     "3:c#59:repo.list0:");
    ("repo req repo.fetch",
     "3:c#410:repo.fetch12:4:none1:t1:3");
    ("repo req repo.fetch",
     "3:c#310:repo.fetch9:4:tiny1:f");
    ("repo rsp repo.assign_batch",
     "3:c#71:t3:1:2");
    ("repo rsp repo.list",
     "3:c#51:t9:1:14:tiny");
    ("repo rsp repo.inspect",
     "3:c#61:t24:1:t4:tiny1:11:11:a1:11:0");
    ("repo rsp repo.fetch",
     "3:c#41:t33:1:f27:no version 3 of script none");
    ("repo rsp repo.fetch",
     "3:c#31:t133:1:t126:class D;\ntaskclass P { outputs { outcome ok { o of class D } } };\ntask a of taskclass P { implementation { \"code\" is \"p\" } };\n");
    ("repo rsp repo.store",
     "3:c#21:t80:1:f74:parse error: expected an identifier, found end of input (line 1, column 6)");
    ("repo req repo.placements",
     "4:c#1015:repo.placements0:");
    ("repo req repo.owner",
     "3:c#810:repo.owner6:4:wf-1");
    ("repo req repo.owner",
     "3:c#910:repo.owner6:4:wf-9");
    ("repo rsp repo.owner",
     "3:c#81:t7:1:t2:e1");
    ("repo rsp repo.placements",
     "4:c#101:t33:1:34:wf-12:e14:wf-22:e14:wf-32:e2");
    ("repo rsp repo.owner",
     "3:c#91:t3:1:f");
    ("repo cmd store",
     "5:store2:c14:tiny126:class D;\ntaskclass P { outputs { outcome ok { o of class D } } };\ntask a of taskclass P { implementation { \"code\" is \"p\" } };\n");
    ("repo reply store",
     "1:t1:1");
    ("repo cmd assign_batch",
     "12:assign_batch2:c31:24:wf-22:e14:wf-32:e2");
    ("repo reply assign_batch",
     "1:2");
    ("repo cmd unknown",
     "4:drop2:c4");
    ("repo reply unknown",
     "1:f32:unknown repository command: drop");
    ("rlog req cons.vote",
     "4:r1#29:cons.vote13:1:12:r11:01:0");
    ("rlog rsp cons.vote",
     "4:r1#21:t6:1:11:t");
    ("rlog req cons.replicate",
     "4:r1#314:cons.replicate24:1:12:r11:01:01:11:10:1:0");
    ("rlog rsp cons.replicate",
     "4:r1#31:t9:1:11:t1:1");
    ("rlog req cons.append",
     "8:client#711:cons.append6:1:f1:x");
    ("rlog rsp cons.append",
     "8:client#71:t9:2:ok3:r:x");
    ("rlog req cons.ping",
     "5:r3#129:cons.ping4:2:r3");
    ("rlog rsp cons.ping",
     "5:r3#121:t13:1:11:t2:r11:2");
    ("tx prepare",
     "6:n0:1:22:n01:22:k11:t3:v:12:k21:f");
    ("tx vote yes",
     "1:t");
    ("tx vote no",
     "1:f");
    ("tx txid",
     "6:n0:1:2");
    ("tx status committed",
     "1:c");
    ("tx status aborted",
     "1:a");
    ("tx status pending",
     "1:p");
    ("admin req wf.admin.policy",
     "10:console#1515:wf.admin.policy8:6:wf-1-1");
    ("admin req wf.admin.status",
     "10:console#1115:wf.admin.status8:6:wf-1-1");
    ("admin req wf.admin.cancel",
     "10:console#1615:wf.admin.cancel15:4:none7:console");
    ("admin req wf.admin.status",
     "10:console#1015:wf.admin.status6:4:none");
    ("admin req wf.admin.cancel",
     "10:console#1715:wf.admin.cancel17:6:wf-1-27:console");
    ("admin req wf.admin.list",
     "9:console#913:wf.admin.list0:");
    ("admin req wf.admin.history",
     "10:console#1416:wf.admin.history8:6:wf-1-1");
    ("admin req wf.admin.tasks",
     "10:console#1314:wf.admin.tasks8:6:wf-1-1");
    ("admin req wf.admin.status",
     "10:console#1215:wf.admin.status8:6:wf-1-2");
    ("admin rsp wf.admin.policy",
     "10:console#151:t109:1:57:diamond1:11:01:f10:diamond/t11:11:01:f10:diamond/t21:11:01:f10:diamond/t31:11:01:f10:diamond/t41:11:01:f");
    ("admin rsp wf.admin.status",
     "10:console#111:t54:4:done8:finished35:1:14:data4:Data1:l1:21:i2:141:i2:14");
    ("admin rsp wf.admin.cancel",
     "10:console#161:t27:1:f21:no such instance none");
    ("admin rsp wf.admin.cancel",
     "10:console#171:t3:1:t");
    ("admin rsp wf.admin.list",
     "9:console#91:t19:1:26:wf-1-16:wf-1-2");
    ("admin rsp wf.admin.tasks",
     "10:console#131:t193:1:57:diamond22:done(outcome finished)10:diamond/t122:done(outcome produced)10:diamond/t225:done(outcome transformed)10:diamond/t325:done(outcome transformed)10:diamond/t420:done(outcome joined)");
    ("admin rsp wf.admin.history",
     "10:console#141:t450:2:121:06:launch12:root=diamond1:05:start19:diamond (attempt 1)1:05:start22:diamond/t1 (attempt 1)4:20008:complete22:diamond/t1 -> produced4:20005:start22:diamond/t2 (attempt 1)4:20005:start22:diamond/t3 (attempt 1)4:40008:complete25:diamond/t2 -> transformed4:40008:complete25:diamond/t3 -> transformed4:40005:start22:diamond/t4 (attempt 1)4:60008:complete19:diamond -> finished4:60008:complete20:diamond/t4 -> joined4:60008:instance14:done(finished)");
    ("admin rsp wf.admin.status",
     "10:console#121:t29:6:failed18:cancelled: console");
    ("admin rsp wf.admin.status",
     "10:console#101:t6:4:none");
    ("admin req wf.admin.status",
     "10:console#2015:wf.admin.status8:6:wf-1-2");
    ("admin rsp wf.admin.status",
     "10:console#201:t29:6:failed18:cancelled: console");
  ]

let test_wire_format_golden () =
  let actual = wire_exemplars () in
  check_int "exemplar count" (List.length wire_golden) (List.length actual);
  List.iter2
    (fun expected (label, bytes) ->
      Alcotest.(check (pair string string)) label expected (label, bytes))
    wire_golden actual

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_wire_string_roundtrip;
      prop_wire_list_roundtrip;
      prop_wire_int_direct_decimal;
      prop_wire_repeated_runs_independent;
    ]

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrips" `Quick test_wire_roundtrips;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "rejects extreme lengths" `Quick test_wire_rejects_extreme_lengths;
          Alcotest.test_case "scratch reuse clean" `Quick test_wire_scratch_reuse_is_clean;
          Alcotest.test_case "scratch domain-isolated" `Quick test_wire_scratch_domain_isolated;
          Alcotest.test_case "format golden" `Quick test_wire_format_golden;
        ] );
      ( "value codec",
        [
          Alcotest.test_case "roundtrips" `Quick test_value_roundtrips;
          Alcotest.test_case "rejects malformed" `Quick test_value_rejects_malformed;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery and latency" `Quick test_delivery_and_latency;
          Alcotest.test_case "total loss" `Quick test_loss_drops_everything;
          Alcotest.test_case "partition" `Quick test_partition_blocks_and_heals;
          Alcotest.test_case "crashed destination" `Quick test_crashed_destination_drops;
          Alcotest.test_case "crash in flight" `Quick test_crash_in_flight_drops_at_delivery;
          Alcotest.test_case "crashed source" `Quick test_crashed_source_sends_nothing;
          Alcotest.test_case "hooks idempotent" `Quick test_node_hooks_fire_once;
          Alcotest.test_case "service withdrawn" `Quick test_service_withdrawn;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "call ok" `Quick test_rpc_call_ok;
          Alcotest.test_case "unknown service" `Quick test_rpc_unknown_service_errors;
          Alcotest.test_case "handler exception" `Quick test_rpc_handler_exception_is_error;
          Alcotest.test_case "timeout on dead node" `Quick test_rpc_timeout_on_dead_destination;
          Alcotest.test_case "retries + dedup" `Quick test_rpc_retries_through_loss_execute_once;
          Alcotest.test_case "caller crash" `Quick test_rpc_caller_crash_suppresses_callback;
          Alcotest.test_case "caller crash cancels timeouts" `Quick
            test_rpc_caller_crash_cancels_timeouts;
          Alcotest.test_case "reply cache bounded" `Quick test_rpc_reply_cache_bounded;
          Alcotest.test_case "dedup with small cache" `Quick test_rpc_dedup_survives_small_cache;
          Alcotest.test_case "invalid cache cap" `Quick test_rpc_invalid_cache_cap_rejected;
          Alcotest.test_case "garbage request frame dropped" `Quick
            test_rpc_garbage_request_dropped;
          Alcotest.test_case "garbage response frame dropped" `Quick
            test_rpc_garbage_response_dropped;
          Alcotest.test_case "loopback skips network" `Quick test_rpc_loopback_skips_network;
          Alcotest.test_case "loopback through partition" `Quick
            test_rpc_loopback_on_partitioned_self;
          Alcotest.test_case "loopback crashed self" `Quick
            test_rpc_loopback_crashed_self_times_out;
          Alcotest.test_case "loopback crash pre-delivery" `Quick
            test_rpc_loopback_crash_before_delivery_suppresses_callback;
        ] );
      ("properties", qsuite);
    ]
