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
  let enc = Wire.(triple string (list int) (option bool)) in
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
    (match Wire.(decode (d_list d_int)) (Wire.int (-1)) with
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
  check "unknown tag" true (rejects (Wire.string "z"));
  check "unknown tag with payload" true (rejects (Wire.string "q" ^ Wire.int 3));
  check "int tag, truncated payload" true (rejects (Wire.string "i"));
  check "pair tag, one element missing" true (rejects (Wire.string "p" ^ Value.encode Value.Unit));
  check "list with short count" true (rejects (Wire.string "l" ^ Wire.int 2 ^ Value.encode Value.Unit));
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
    (fun s -> Wire.(decode d_string) (Wire.string s) = s)

let prop_wire_list_roundtrip =
  QCheck.Test.make ~name:"wire lists of pairs roundtrip" ~count:200
    QCheck.(list (pair string small_int))
    (fun l ->
      let enc = Wire.(list (pair string int)) in
      Wire.(decode (d_list (d_pair d_string d_int))) (enc l) = l)

(* --- reused-buffer encoder paths --- *)

(* Wire.run reuses one scratch buffer per domain. Legacy combinators
   nest run (the in-use fallback path); consecutive calls must not leak
   bytes from one encoding into the next; and [b_int]'s direct decimal
   emission must agree with the historical string framing. *)

let test_wire_scratch_reuse_is_clean () =
  let long = String.make 300 'x' in
  let a = Wire.string long in
  let b = Wire.string "short" in
  check "second encode unpolluted by first" true (Wire.(decode d_string) b = "short");
  check "first encode intact" true (Wire.(decode d_string) a = long);
  (* nested legacy combinators: outer run holds the scratch, inner runs
     take the fresh-buffer fallback *)
  let enc = Wire.(pair (list (pair string int)) (option string)) in
  let v = ([ ("a:b", 7); ("", -1); (long, max_int) ], Some "tail") in
  check "nested combinators roundtrip" true
    (Wire.(decode (d_pair (d_list (d_pair d_string d_int)) (d_option d_string))) (enc v) = v)

let prop_wire_int_direct_decimal =
  QCheck.Test.make ~name:"b_int direct decimal matches string framing" ~count:500
    QCheck.(oneof [ int; int_range (-1000) 1000 ])
    (fun n ->
      Wire.int n = Wire.string (string_of_int n) && Wire.(decode d_int) (Wire.int n) = n)

let prop_wire_repeated_runs_independent =
  QCheck.Test.make ~name:"scratch reuse: encode twice = encode once" ~count:200
    QCheck.(pair string (list small_int))
    (fun (s, l) ->
      let enc () = Wire.(pair string (list int)) (s, l) in
      let first = enc () in
      let second = enc () in
      first = second && Wire.(decode (d_pair d_string (d_list d_int))) second = (s, l))

(* Two domains encoding concurrently must not share scratch bytes (the
   scratch is domain-local storage). *)
let test_wire_scratch_domain_isolated () =
  let rounds = 2000 in
  let encode_round i =
    let payload = Printf.sprintf "payload-%d-%s" i (String.make (i mod 50) 'y') in
    Wire.(decode d_string) (Wire.string payload) = payload
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
