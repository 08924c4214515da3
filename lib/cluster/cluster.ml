(* The sharded multi-engine layer (paper §3, Fig 4: a repository service
   plus execution services — plural).

   One Cluster owns N engines on N nodes plus the repository service.
   Workflow launches are routed to an engine by a deterministic
   placement policy; the (iid -> engine) assignment is persisted through
   the repository service so any node can resolve ownership; status and
   admin operations route through the directory. Engines never learn
   about each other — the per-engine service namespacing (Wfmsg) and
   per-engine event source labels keep their worlds apart on the shared
   fabric. *)

type policy = Round_robin | Hash_iid

(* One repository node, or a consensus-replicated set of them. *)
type backend =
  | Single of Repository.t
  | Replicated of Repo_group.t

type t = {
  tb : Testbed.t;
  repo : backend;
  repo_ids : string list;
  policy : policy;
  metrics : Metrics.t;
  directory : (string, string) Hashtbl.t;  (* iid -> engine node; router's cache *)
  clients : (string * Repo_client.t) list;  (* repository client per engine node *)
  owner_clients : (string, Repo_client.t) Hashtbl.t;
      (* per-source clients for directory lookups, cached across calls *)
  mutable seq : int;
  mutable pending_assigns : (string * string) list;
      (* (iid, eid) placement writes awaiting the batched flush, newest
         first — every launch of one poll instant rides one
         repo.assign_batch RPC per engine instead of one RPC each *)
  mutable assign_armed : bool;
}

(* How long to wait before re-trying a placement write that exhausted
   the RPC layer's own retries (repository unreachable). *)
let assign_retry_period = Sim.ms 50

(* Batched placement writes: assignments enqueued within one simulation
   timestep flush together, grouped into one [repo.assign_batch] RPC per
   owning engine. The RPC already retries transient losses; the re-queue
   on error covers a repository outage longer than the RPC budget, and
   the recovery hook installed in [make] covers the remaining hole — the
   owning engine's node crashing while the call is outstanding (the
   callback is then never invoked, so no loop survives to retry). *)
let rec flush_assigns t =
  t.assign_armed <- false;
  let pending = List.rev t.pending_assigns in
  t.pending_assigns <- [];
  List.iter
    (fun eid ->
      match List.filter_map (fun (iid, e) -> if e = eid then Some iid else None) pending with
      | [] -> ()
      | iids ->
        let pairs = List.map (fun iid -> (iid, eid)) iids in
        Metrics.incr t.metrics "cluster.assign_batches";
        Repo_client.assign_many (List.assoc eid t.clients) ~pairs (function
          | Ok () -> ()
          | Error _ ->
            ignore
              (Sim.schedule t.tb.Testbed.sim ~delay:assign_retry_period (fun () ->
                   (* only re-push pairs the router still believes in:
                      a relaunch elsewhere must not be overwritten *)
                   let still =
                     List.filter
                       (fun (iid, _) -> Hashtbl.find_opt t.directory iid = Some eid)
                       pairs
                   in
                   if still <> [] then begin
                     t.pending_assigns <- List.rev_append still t.pending_assigns;
                     arm_assigns t
                   end))))
    (List.map fst t.tb.Testbed.engines)

and arm_assigns t =
  if not t.assign_armed then begin
    t.assign_armed <- true;
    ignore (Sim.schedule t.tb.Testbed.sim ~delay:0 (fun () -> flush_assigns t))
  end

let ensure_assigned t ~iid ~eid =
  t.pending_assigns <- (iid, eid) :: t.pending_assigns;
  arm_assigns t

(* a client of the repository from node [src]: the single node, or the
   replica set *)
let repo_client ~rpc ~repo ~repo_ids src =
  match repo with
  | Single _ -> Repo_client.create ~rpc ~src ~repo_node:(List.hd repo_ids)
  | Replicated _ -> Repo_client.create_replicated ~rpc ~src ~replicas:repo_ids ()

let make ?config ?engine_config ?seed ?(policy = Round_robin) ?(hosts = [])
    ?(repo_node = "repo") ?(repo_replicas = 1) ~engines () =
  if engines = [] then invalid_arg "Cluster.make: need at least one engine";
  if repo_replicas < 1 then invalid_arg "Cluster.make: repo_replicas must be >= 1";
  let repo_ids =
    if repo_replicas = 1 then [ repo_node ]
    else List.init repo_replicas (fun i -> Printf.sprintf "%s%d" repo_node (i + 1))
  in
  List.iter
    (fun id ->
      if List.mem id engines || List.mem id hosts then
        invalid_arg ("Cluster.make: node id " ^ id ^ " is reserved for the repository"))
    repo_ids;
  let nodes = engines @ hosts @ repo_ids in
  let tb = Testbed.make ?config ?engine_config ?seed ~nodes ~engines () in
  let repo =
    if repo_replicas = 1 then
      Single (Repository.create ~rpc:tb.Testbed.rpc ~node:(Testbed.node tb repo_node))
    else
      Replicated
        (Repo_group.create ~rpc:tb.Testbed.rpc
           ~nodes:(List.map (Testbed.node tb) repo_ids))
  in
  let metrics = Metrics.create () in
  Metrics.attach_labelled metrics (Sim.events tb.Testbed.sim);
  let clients =
    List.map
      (fun (eid, _) -> (eid, repo_client ~rpc:tb.Testbed.rpc ~repo ~repo_ids eid))
      tb.Testbed.engines
  in
  let t =
    { tb; repo; repo_ids; policy; metrics; directory = Hashtbl.create 32; clients;
      owner_clients = Hashtbl.create 4; seq = 0; pending_assigns = []; assign_armed = false }
  in
  (* every engine answers wf.admin.* on its own node, so consoles (and
     the routed policy-budget query below) can reach any shard *)
  List.iter (fun (_, e) -> Admin.serve e) tb.Testbed.engines;
  (* an engine crash can swallow in-flight placement writes (the caller
     died, so nobody retries): re-assert every assignment the router
     believes the engine owns once its node comes back *)
  List.iter
    (fun (eid, _) ->
      Node.on_recover (Testbed.node tb eid) (fun () ->
          Hashtbl.iter
            (fun iid owner -> if owner = eid then ensure_assigned t ~iid ~eid)
            t.directory))
    tb.Testbed.engines;
  t

let sim t = t.tb.Testbed.sim

let net t = t.tb.Testbed.net

let rpc t = t.tb.Testbed.rpc

let registry t = t.tb.Testbed.registry

let repository t =
  match t.repo with
  | Single r -> r
  | Replicated g -> Repo_group.authoritative g

let repo_group t = match t.repo with Single _ -> None | Replicated g -> Some g

let repo_nodes t = t.repo_ids

let metrics t = t.metrics

let engines t = t.tb.Testbed.engines

let participants t = t.tb.Testbed.participants

let managers t = t.tb.Testbed.managers

let engine_ids t = List.map fst (engines t)

let engine t id =
  match List.assoc_opt id (engines t) with
  | Some e -> e
  | None -> invalid_arg ("Cluster.engine: no engine on node " ^ id)

(* --- placement --- *)

(* stable string hash (djb2) — OCaml's Hashtbl.hash is also stable, but
   spelling it out keeps placement reproducible by inspection *)
let hash_iid s =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h * 33) + Char.code c) land 0x3FFFFFFF) s;
  !h

let place t ~iid =
  let ids = engine_ids t in
  let n = List.length ids in
  match t.policy with
  | Round_robin -> List.nth ids ((t.seq - 1) mod n)
  | Hash_iid -> List.nth ids (hash_iid iid mod n)

let launch t ~script ~root ~inputs =
  t.seq <- t.seq + 1;
  let iid = Printf.sprintf "wf-c%d" t.seq in
  let eid = place t ~iid in
  match Engine.launch (engine t eid) ~iid ~script ~root ~inputs with
  | Error e ->
    t.seq <- t.seq - 1;
    Error e
  | Ok iid ->
    Hashtbl.replace t.directory iid eid;
    (* make the assignment durable through the repository service, from
       the owning engine's node — any node can then resolve it; retried
       until the repository acknowledges *)
    ensure_assigned t ~iid ~eid;
    Ok (iid, eid)

let owner t iid = Hashtbl.find_opt t.directory iid

let owner_rpc t ~src ~iid k =
  let client =
    match Hashtbl.find_opt t.owner_clients src with
    | Some c -> c
    | None ->
      let c = repo_client ~rpc:(rpc t) ~repo:t.repo ~repo_ids:t.repo_ids src in
      Hashtbl.replace t.owner_clients src c;
      c
  in
  Repo_client.owner client ~iid (function
    | Ok o -> k (Ok o)
    | Error e ->
      (* connection failure: drop the cached client so the next lookup
         starts from a clean leader guess instead of retrying a dead
         node forever *)
      Repo_client.invalidate client;
      Hashtbl.remove t.owner_clients src;
      k (Error e))

let placements t =
  Hashtbl.fold (fun iid eid acc -> (iid, eid) :: acc) t.directory [] |> List.sort compare

(* --- routed queries and admin --- *)

let with_owner t iid f = Option.map (fun eid -> f (engine t eid)) (owner t iid)

let status t iid = Option.join (with_owner t iid (fun e -> Engine.status e iid))

let on_complete t iid cb =
  ignore (with_owner t iid (fun e -> Engine.on_complete e iid cb))

let policy_budgets t iid =
  match Option.join (with_owner t iid (fun e -> Engine.mirror e iid)) with
  | Some inst -> Instate.policy_budgets inst ~now:(Sim.now (sim t))
  | None -> []

let policy_budgets_rpc t ~src ~iid k =
  owner_rpc t ~src ~iid (function
    | Error e -> k (Error e)
    | Ok None -> k (Error ("no owner recorded for " ^ iid))
    | Ok (Some eid) ->
      let admin = Admin.Client.create ~rpc:(rpc t) ~src ~engine_node:eid in
      Admin.Client.policy_budgets admin ~iid k)

let instances_of t eid = Engine.instances (engine t eid)

let per_engine_instances t =
  List.map (fun (eid, e) -> (eid, List.length (Engine.instances e))) (engines t)

let dispatches_total t =
  List.fold_left (fun acc (_, e) -> acc + Engine.dispatches_total e) 0 (engines t)

let completions_total t =
  List.fold_left (fun acc (_, e) -> acc + Engine.completions_total e) 0 (engines t)

(* --- driving the simulation and faults --- *)

let run ?until t = Testbed.run ?until t.tb

let crash t id = Testbed.crash t.tb id

let recover t id = Testbed.recover t.tb id

let apply_faults t plan = Testbed.apply_faults t.tb plan
