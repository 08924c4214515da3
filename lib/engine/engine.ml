(* The execution service, layered:

   - Engine   — the client operations, construction and crash/recover hooks
   - Recovery — replay: mirrors rebuilt from the committed store, no effects
   - Pump     — the evaluation loop and every action's effects
   - Dispatch — effects: transactions, RPC dispatch, committed reads
   - Sched    — pure scheduling core (readiness, selection, Fig 3 rules)
   - Policy   — pure recovery decisions (attempt bands, backoff, timeouts)
   - Instate  — per-instance mirrors, decided rows + action -> rows
   - Event/Metrics — typed observability spine (Sim.events) *)

type config = Pump.config = {
  default_deadline : Sim.time;
  system_max_attempts : int;
  dispatch_overhead : Sim.time;
  retain_concluded : bool;
  trace : bool;
}

let default_config =
  {
    default_deadline = Sim.sec 30;
    system_max_attempts = 10;
    dispatch_overhead = 0;
    retain_concluded = true;
    trace = true;
  }

type t = Pump.t

let node (t : t) = t.node
let now (t : t) = Sim.now t.sim
let trace (t : t) = List.rev t.log
let metrics (t : t) = t.metrics
let emit = Pump.emit

(* --- schema cache --- *)

(* Launching the same script text repeatedly (the capacity bench does it
   100k times) re-parses an identical source each time: cache the
   compiled schema by (root, script). Recovery goes through the same
   cache, so replaying n instances of one script compiles it once.
   Instances never mutate the shared tree — reconfigure swaps in a
   freshly compiled one — so sharing is safe.

   Domain-safety invariant: the cache is engine-scoped, not global, and
   an engine (with its whole sim stack) is confined to the domain that
   built it — parallel exploration gives each schedule's run a fresh
   stack (DESIGN.md §13), so this table is only ever touched from one
   domain and needs no lock. Any future cross-domain schema sharing must
   either keep per-domain caches or add a mutex here. *)
let compile_cached (t : t) ~script ~root =
  let key = (root, script) in
  match Hashtbl.find_opt t.compiled key with
  | Some schema -> Ok schema
  | None ->
    let compiled = Frontend.compile script ~root in
    Result.iter (Hashtbl.replace t.compiled key) compiled;
    compiled

(* --- launch and recovery --- *)

(* Enter an instance in the directory under the current sequence number,
   announce [ev], and start its scheduling once its directory, meta and
   [rows] commit. Visible at once: callers can attach on_complete before
   the launch transaction commits. *)
let start (t : t) (inst : Instate.t) ev rows =
  let iid = inst.Instate.iid in
  Hashtbl.replace t.dir iid t.seq;
  Hashtbl.replace t.insts iid inst;
  emit t ev;
  let meta = Instate.meta inst ~status:Wstate.Wf_running in
  Pump.persist_rows t inst
    (Wstate.Put (Wstate.Dir, t.seq) :: Wstate.Put (Wstate.Meta, meta) :: rows)
    (fun () -> Pump.mark_dirty t inst)

(* Nothing changes the mirror table while the node is down: client
   operations refuse, reports are not delivered and every continuation
   is fenced. So it still holds what the crash left, and its instances
   are the launches to check: a mirror holds decided rows, so one whose
   launch was lost may already show its conclusion. *)
let recover (t : t) () =
  let launched = Hashtbl.fold (fun _ inst acc -> inst :: acc) t.insts [] in
  Hashtbl.reset t.insts;
  Hashtbl.reset t.dir;
  let entries = Recovery.replay t.disp ~compile:(compile_cached t) in
  List.iter
    (fun { Recovery.iid; seq; mirror } ->
      Hashtbl.replace t.dir iid seq;
      match mirror with
      | None -> ()
      | Some (Error detail) -> emit t (Event.Recovery_error { detail })
      | Some (Ok inst) ->
        Hashtbl.replace t.insts iid inst;
        Pump.resume t inst)
    entries;
  emit t (Event.Recovery_replayed { instances = List.length entries });
  (* Every engine write set commits on the local lane (see
     {!Dispatch.persist}), so no launch can still be deciding now: an
     instance whose meta row is not in the store was lost, and is
     launched again at this instant, keeping its iid under a fresh
     sequence number. *)
  List.iter
    (fun (o : Instate.t) ->
      let meta_key = Wstate.key o.Instate.iid Wstate.Meta in
      if Dispatch.committed_value t.disp ~key:meta_key = None then begin
        t.seq <- t.seq + 1;
        start t (Instate.reset o) (Event.Wf_relaunched { iid = o.Instate.iid }) []
      end)
    launched

(* --- construction --- *)

let attach_host (t : t) node =
  Exec_host.attach ~rpc:t.rpc ~node ~registry:t.reg ~engine_node:(Node.id t.node)

let create ?(config = default_config) ~rpc ~node ~mgr ~participant ~registry:reg () =
  let sim = Network.sim (Rpc.network rpc) in
  let metrics = Metrics.create () in
  (* the metrics registry is scoped to this engine's source label — in a
     multi-engine cluster each engine only observes its own stream
     (cluster-wide views subscribe unfiltered) *)
  let own = Node.id node in
  Metrics.attach metrics ~src:own (Sim.events sim);
  (* the split advances the root rng: components created after this
     engine draw their seeds from where it leaves off *)
  let rng = Rng.split (Sim.rng sim) in
  let t =
    {
      Pump.sim;
      rpc;
      node;
      disp = Dispatch.create ~overhead:config.dispatch_overhead ~rpc ~node ~mgr ~participant ();
      reg;
      config;
      log = [];
      metrics;
      (* a copy, not another split: the root rng must advance exactly as
         before so downstream components keep their seed streams *)
      jitter_salt = own ^ "#" ^ Int64.to_string (Rng.next_int64 (Rng.copy rng));
      insts = Hashtbl.create 8;
      dir = Hashtbl.create 8;
      compiled = Hashtbl.create 8;
      seq = 0;
    }
  in
  Node.serve node ~service:(Wfmsg.service_done ~engine:own) (Pump.handle_report t ~is_mark:false);
  Node.serve node ~service:(Wfmsg.service_mark ~engine:own) (Pump.handle_report t ~is_mark:true);
  (* the incarnation fence already makes the timers no-ops; cancelling
     frees the old mirrors now rather than at each timer's deadline *)
  Node.on_crash node (fun () ->
      Hashtbl.iter (fun _ inst -> Instate.cancel_timers inst sim) t.insts);
  Node.on_recover node (recover t);
  ignore (attach_host t node);
  t

(* --- client operations --- *)

(* An instance owns every store key under [wf:<iid>:] (gc deletes them,
   recovery slices them out), so an id must not make that prefix cover
   keys it does not own: a ':' would nest it over another instance's
   rows ([wf:a:] covers [wf:a:t:x:meta]), and ["dir"] over the
   directory rows ([wf:dir:]). *)
let reserved_iid i = String.contains i ':' || String.equal i "dir"

(* A crashed engine refuses client operations before they write
   anything; the client retries once the engine has recovered. *)
let down_error (t : t) = Error ("engine " ^ Node.id t.node ^ " is down")

let with_instance (t : t) iid k f =
  if not (Node.up t.node) then k (down_error t)
  else
    match Hashtbl.find_opt t.insts iid with
    | None -> k (Error ("no such instance " ^ iid))
    | Some inst -> f inst

let launch ?iid (t : t) ~script ~root ~inputs =
  if not (Node.up t.node) then down_error t
  else
    match compile_cached t ~script ~root with
    | Error e -> Error (Frontend.error_to_string e)
    (* the directory, not the mirror table: an instance whose stored
       script no longer compiles has no mirror but still owns its rows *)
    | Ok _ when (match iid with Some i -> Hashtbl.mem t.dir i | None -> false) ->
      Error ("duplicate instance id " ^ Option.get iid)
    | Ok _ when (match iid with Some i -> reserved_iid i | None -> false) ->
      Error ("reserved instance id " ^ Option.get iid ^ " (ids may not contain ':' or be \"dir\")")
    | Ok schema ->
      t.seq <- t.seq + 1;
      let iid =
        match iid with
        | Some i -> i
        | None -> Printf.sprintf "wf-%d-%d" (Node.incarnation t.node + 1) t.seq
      in
      let inst =
        Instate.create ~iid ~script_text:script ~schema ~status:Wstate.Wf_running
          ~external_inputs:inputs
      in
      start t inst
        (Event.Wf_launched { iid; root })
        [ Instate.history_row inst ~now:(Sim.now t.sim) ~kind:"launch" ~detail:("root=" ^ root) ];
      Ok iid

let on_complete (t : t) iid cb =
  match Hashtbl.find_opt t.insts iid with
  | None -> ()
  (* a conclusion is announced once it has committed *)
  | Some inst when inst.Instate.status = Wstate.Wf_running || inst.Instate.concluding ->
    inst.Instate.callbacks <- inst.Instate.callbacks @ [ cb ]
  | Some inst -> cb inst.Instate.status

let cancel t iid ~reason k =
  with_instance t iid k @@ fun inst ->
  if inst.Instate.status <> Wstate.Wf_running then
    k (Error ("instance " ^ iid ^ " already finished"))
  else
    Pump.conclude t inst
      (Wstate.Wf_failed ("cancelled: " ^ reason))
      (Event.Wf_cancelled { iid; reason })
      (fun () -> k (Ok ()))

let abort_task t iid ~path k =
  with_instance t iid k @@ fun inst ->
  let pkey = Wstate.path_to_string path in
  (* the state first: a finished task needs no lookup, which would
     rebuild a concluded instance's index *)
  match Instate.get_state inst path with
  | Some (Wstate.Done _ | Wstate.Failed _) -> k (Error (pkey ^ " already finished"))
  | None | Some (Wstate.Waiting _ | Wstate.Running _) -> (
    match Pump.find_task_node t inst path with
    | Some task ->
      emit t (Event.User_aborted { path = pkey });
      Pump.fail_policy t inst ~path ~task ~reason:"aborted by user";
      k (Ok ())
    | None -> k (Error ("no task at path " ^ pkey)))

let compact (t : t) = Dispatch.compact t.disp

let gc (t : t) iid k =
  with_instance t iid k @@ fun inst ->
  (* a conclusion still in flight would leave its history row behind *)
  if inst.Instate.status = Wstate.Wf_running || inst.Instate.concluding then
    k (Error ("instance " ^ iid ^ " is still running"))
  else
    let doomed = Dispatch.committed_keys_with_prefix t.disp ~prefix:(Wstate.task_prefix iid) in
    let writes =
      Wstate.encode iid (Wstate.Delete Wstate.Dir) :: List.map (fun key -> (key, None)) doomed
    in
    Dispatch.persist t.disp writes (fun () ->
        Hashtbl.remove t.dir iid;
        Hashtbl.remove t.insts iid;
        emit t (Event.Wf_collected { iid });
        k (Ok ()))

let reconfigure t iid ~transform k =
  with_instance t iid k @@ fun inst ->
  match
    Reconfig.rewrite ~script:inst.Instate.script_text ~root:inst.Instate.schema.Schema.name
      ~transform
  with
  | Error msg -> k (Error msg)
  | Ok (text, schema) ->
    inst.Instate.schema <- schema;
    (* the reverse-dependency index was built against the old tree;
       drop it so the next pump rebuilds from the new one *)
    inst.Instate.index <- None;
    Pump.persist_rows t inst
      [ Wstate.Put (Wstate.Reconf, text) ]
      (fun () ->
        emit t (Event.Wf_reconfigured { iid });
        Pump.mark_dirty t inst;
        k (Ok ()))

(* --- introspection --- *)

let status (t : t) iid =
  Option.map (fun (inst : Instate.t) -> inst.Instate.status) (Hashtbl.find_opt t.insts iid)

let instances (t : t) =
  Hashtbl.fold (fun iid seq acc -> (seq, iid) :: acc) t.dir [] |> List.sort compare |> List.map snd

let mirror (t : t) iid = Hashtbl.find_opt t.insts iid

let history (t : t) iid = Dispatch.committed_history t.disp ~iid

let histories (t : t) =
  let keys = Dispatch.committed_key_array t.disp in
  List.map (fun iid -> (iid, Dispatch.history_in t.disp keys ~iid)) (instances t)

let quiescent (t : t) iid =
  match Hashtbl.find_opt t.insts iid with
  | None -> false
  | Some inst ->
    inst.Instate.status = Wstate.Wf_running
    && Instate.running_leaves inst ~effective:(Pump.effective_body t) = []

(* counters from the metrics registry, fed by the bus *)
let dispatches_total t = Metrics.value (metrics t) "engine.dispatches"
let completions_total t = Metrics.value (metrics t) "engine.completions"
let system_retries_total t = Metrics.value (metrics t) "engine.system_retries"
let policy_retries_total t = Metrics.value (metrics t) "engine.policy_retries"
let reconfigs_total t = Metrics.value (metrics t) "engine.reconfigs"
let recoveries_total t = Metrics.value (metrics t) "engine.recoveries"

(* Residency accounting for the capacity bench: reachable words from
   the live mirror table, sampled on demand (walking 100k instances is
   too expensive to do implicitly). The walk covers a copy of the table
   whose mirrors have empty timer tables: a queued timer's closure leads
   on to the whole engine, and the timers belong to the simulator queue,
   which the walk has never counted. *)
let observe_residency (t : t) =
  let mirrors =
    if Hashtbl.fold (fun _ inst any -> any || Instate.has_timers inst) t.insts false then begin
      let copy = Hashtbl.copy t.insts in
      Hashtbl.filter_map_inplace (fun _ inst -> Some (Instate.without_timers inst)) copy;
      copy
    end
    else t.insts
  in
  Obj.reachable_words (Obj.repr mirrors)
