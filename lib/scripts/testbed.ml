type t = {
  sim : Sim.t;
  net : Network.t;
  rpc : Rpc.t;
  registry : Registry.t;
  engine : Engine.t;
  engines : (string * Engine.t) list;
  nodes : Node.t list;
  participants : (string * Participant.t) list;
  managers : (string * Txn.manager) list;
}

let make ?(config = Network.default_config) ?(engine_config = Engine.default_config)
    ?(seed = 42L) ?(nodes = [ "n0" ]) ?engines:engine_ids () =
  if nodes = [] then invalid_arg "Testbed.make: need at least one node";
  let engine_ids =
    match engine_ids with
    | None -> [ List.hd nodes ]
    | Some [] -> invalid_arg "Testbed.make: need at least one engine"
    | Some ids -> ids
  in
  (* every engine id is also a node; extra engine nodes are appended *)
  let all_ids = nodes @ List.filter (fun e -> not (List.mem e nodes)) engine_ids in
  let sim = Sim.create ~seed () in
  let net = Network.create ~config sim in
  let rpc = Rpc.create net in
  let registry = Registry.create () in
  let members =
    List.map
      (fun id ->
        let node = Network.add_node net ~id in
        Rpc.attach rpc node;
        let participant = Participant.create ~rpc ~node in
        let mgr = Txn.manager ~rpc ~node ~participant in
        (node, participant, mgr))
      all_ids
  in
  let member id =
    List.find (fun (n, _, _) -> Node.id n = id) members
  in
  let engines =
    List.map
      (fun id ->
        let node, participant, mgr = member id in
        ( id,
          Engine.create ~config:engine_config ~rpc ~node ~mgr ~participant ~registry () ))
      engine_ids
  in
  let engine = snd (List.hd engines) in
  let all_nodes = List.map (fun (n, _, _) -> n) members in
  (* services are namespaced per engine, so every node can host tasks
     for every engine (each engine already hosts on its own node) *)
  List.iter
    (fun (eid, e) ->
      List.iter
        (fun node -> if Node.id node <> eid then ignore (Engine.attach_host e node))
        all_nodes)
    engines;
  let participants = List.map (fun (n, p, _) -> (Node.id n, p)) members in
  let managers = List.map (fun (n, _, m) -> (Node.id n, m)) members in
  { sim; net; rpc; registry; engine; engines; nodes = all_nodes; participants; managers }

let node t id =
  match List.find_opt (fun n -> Node.id n = id) t.nodes with
  | Some n -> n
  | None -> invalid_arg ("Testbed.node: unknown node " ^ id)

let engine_on t id =
  match List.assoc_opt id t.engines with
  | Some e -> e
  | None -> invalid_arg ("Testbed.engine_on: no engine on node " ^ id)

let participant t id =
  match List.assoc_opt id t.participants with
  | Some p -> p
  | None -> invalid_arg ("Testbed.participant: unknown node " ^ id)

let manager t id =
  match List.assoc_opt id t.managers with
  | Some m -> m
  | None -> invalid_arg ("Testbed.manager: unknown node " ^ id)

let run ?until t = Sim.run ?until t.sim

let crash t id = Node.crash (node t id)

let recover t id = Node.recover (node t id)

let node_ids t = List.map Node.id t.nodes

let apply_faults t plan =
  (match Fault.validate ~nodes:(node_ids t) plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Testbed.apply_faults: " ^ msg));
  Fault.apply t.sim plan ~on:(function
    | Fault.Crash n -> crash t n
    | Fault.Restart n -> recover t n
    | Fault.Partition_on (a, b) -> Network.partition_on t.net a b
    | Fault.Partition_off (a, b) -> Network.partition_off t.net a b)

let launch_and_run ?until t ~script ~root ~inputs =
  match Engine.launch t.engine ~script ~root ~inputs with
  | Error e -> Error e
  | Ok iid -> (
    run ?until t;
    match Engine.status t.engine iid with
    | Some status -> Ok (iid, status)
    | None -> Error "instance vanished")
