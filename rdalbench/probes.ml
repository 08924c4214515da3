(* Layer probes: each times one public function of one layer directly,
   outside any workload, and reports its cost per call in wall time and
   in allocated words. Each probe runs five batches and reports the
   median batch. *)

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [measure ~calls f] runs [f] once to warm up, then five batches of
   [calls] calls: (median ns per call, words allocated per call). *)
let measure ~calls f =
  f ();
  let batch () =
    let w0 = allocated_words () in
    let t0 = Tracer.now_ns () in
    for _ = 1 to calls do
      f ()
    done;
    let ns = float_of_int (Tracer.now_ns () - t0) /. float_of_int calls in
    (ns, (allocated_words () -. w0) /. float_of_int calls)
  in
  let batches = List.init 5 (fun _ -> batch ()) in
  (Stats.median (List.map fst batches), Stats.median (List.map snd batches))

let compile_or_fail what (script, root) =
  match Frontend.compile script ~root with
  | Ok schema -> schema
  | Error e -> failwith (Printf.sprintf "probe %s: %s" what (Frontend.error_to_string e))

let compile what script () = ignore (compile_or_fail what script)

let heap () =
  let h = Heap.create ~cmp:compare in
  for i = 0 to 255 do
    Heap.push h i
  done;
  let i = ref 0 in
  fun () ->
    incr i;
    Heap.push h ((!i * 7919) land 0xFFFF);
    ignore (Heap.pop_exn h)

(* the launch frontier of a fresh instance: what the scheduler scans
   when an instance starts *)
let sched_scan (script, root) =
  let schema = compile_or_fail "scan" (script, root) in
  let effective = Registry.effective (Registry.create ()) in
  let inst =
    Instate.create ~iid:"probe" ~script_text:script ~schema ~status:Wstate.Wf_running
      ~external_inputs:Workloads.seed_inputs
  in
  let view = Instate.view inst ~effective in
  fun () -> if Sched.scan view ~root:schema = [] then failwith "probe scan: empty frontier"

let txn nodes =
  let c = Harness.cluster nodes in
  let mgr = Harness.manager c (List.hd nodes) in
  let n = ref 0 in
  fun () ->
    incr n;
    let value = string_of_int !n in
    let io =
      Txn.run mgr (fun t ->
          List.iter (fun node -> Txn.write t ~node ~key:"k" ~value) nodes;
          Txn.return ())
    in
    let result = ref None in
    io (fun r -> result := Some r);
    Harness.run c;
    match !result with
    | Some (Ok ()) -> ()
    | Some (Error e) -> failwith ("probe txn: " ^ Txn.error_to_string e)
    | None -> failwith "probe txn: never resolved"

let rpc_roundtrip () =
  let c = Harness.cluster [ "a"; "b" ] in
  Node.serve (Harness.node c "b") ~service:"echo" (fun ~src:_ body -> body);
  fun () ->
    let ok = ref false in
    Rpc.call c.Harness.rpc ~src:"a" ~dst:"b" ~service:"echo" ~body:"ping" (fun r ->
        ok := r = Ok "ping");
    Harness.run c;
    if not !ok then failwith "probe rpc: no echo"

let wire_message = ("wf-1:task/step17:done", [ 3; 1417; 0; 88_000_000; 42 ])

let wire_encode () =
  let enc = Wire.(b_pair b_string (b_list b_int)) in
  fun () -> ignore (Sys.opaque_identity (Wire.run enc wire_message))

let wire_decode () =
  let dec = Wire.(d_pair d_string (d_list d_int)) in
  let encoded = Wire.run Wire.(b_pair b_string (b_list b_int)) wire_message in
  fun () -> if Wire.decode dec encoded <> wire_message then failwith "probe wire: mismatch"

let wal_append () =
  let w = Wal.create ~name:"probe" in
  let record = "k:wf-1:t:root/step:v:Running" in
  let n = ref 0 in
  fun () ->
    (* rewrite now and then so the log stays at a realistic length *)
    incr n;
    if !n land 0xFFFF = 0 then Wal.rewrite w [];
    Wal.append w record

let kv_recover_1k () =
  let kv = Kvstore.create ~name:"probe" in
  for i = 1 to 1_000 do
    Kvstore.put kv (Printf.sprintf "wf:%d:meta" i) (string_of_int i)
  done;
  fun () ->
    Kvstore.crash kv;
    Kvstore.recover kv

let fanout64 () = Suite.fanout_on_hosts ~width:64

(* (name, unit, calls per batch, set-up returning the call to time) *)
let probes =
  [
    ("heap_pushpop", "ns", 200_000, heap);
    ("compile.chain3", "us", 200, fun () -> compile "chain3" (Workloads.chain ~n:3));
    ("compile.chain6", "us", 200, fun () -> compile "chain6" (Workloads.chain ~n:6));
    ("compile.fanout64", "us", 20, fun () -> compile "fanout64" (fanout64 ()));
    ( "compile.supply_chain",
      "us",
      50,
      fun () -> compile "supply_chain" (Supply_chain.script, Supply_chain.root) );
    ("sched_scan.fanout64", "us", 200, fun () -> sched_scan (fanout64 ()));
    ("txn_local", "us", 2_000, fun () -> txn [ "a" ]);
    ("txn_3node", "us", 1_000, fun () -> txn [ "a"; "b"; "c" ]);
    ("wire_encode", "ns", 50_000, wire_encode);
    ("wire_decode", "ns", 50_000, wire_decode);
    ("rpc_roundtrip", "us", 2_000, rpc_roundtrip);
    ("wal_append", "ns", 200_000, wal_append);
    ("kv_recover_1k", "us", 50, kv_recover_1k);
  ]

let names = List.map (fun (name, unit_, _, _) -> (name, unit_)) probes

(* Metric names follow the layer's unit: probe.heap_pushpop_ns,
   probe.compile_us.chain3, ...; words go to probe.words.<probe>. *)
let metric_name name unit_ =
  match String.index_opt name '.' with
  | Some i -> Printf.sprintf "probe.%s_%s.%s" (String.sub name 0 i) unit_
                (String.sub name (i + 1) (String.length name - i - 1))
  | None -> Printf.sprintf "probe.%s_%s" name unit_

let run ~smoke =
  List.concat_map
    (fun (name, unit_, calls, make) ->
      let calls = if smoke then max 1 (calls / 10) else calls in
      let ns, words = measure ~calls (make ()) in
      [
        Suite.measured (metric_name name unit_) unit_ (if unit_ = "us" then ns /. 1e3 else ns);
        Suite.measured ("probe.words." ^ name) "words" words;
      ])
    probes
