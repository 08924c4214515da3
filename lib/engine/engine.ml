(* The execution service, layered:

   - Sched    — pure scheduling core (readiness, selection, Fig 3 rules)
   - Instate  — per-instance mirrors + action -> writes translation
   - Dispatch — effects: transactions, RPC dispatch, committed reads
   - Event/Metrics/Trace — typed observability spine (Sim.events)

   This module orchestrates: it runs the evaluation pump, owns epochs
   and watchdogs, and wires crash/recovery. *)

type config = {
  default_deadline : Sim.time;
  dispatch_rpc_retries : int;
  system_max_attempts : int;
  default_timeout : Sim.time;
  dispatch_overhead : Sim.time;
  retain_concluded : bool;
  trace : bool;
}

(* The config-seeded default recovery policy: the single source of truth
   for what a task with no [recovery { ... }] section gets. The config
   fields [default_deadline], [dispatch_rpc_retries] and
   [system_max_attempts] are aliases that seed this record once at
   engine creation; everything at dispatch/retry time reads the policy,
   never the config. *)
type default_policy = {
  dp_deadline : Sim.time;  (* per-attempt watchdog deadline *)
  dp_rpc_retries : int;  (* RPC send budget per dispatch *)
  dp_max_attempts : int;  (* total execution attempts per task *)
}

let default_config =
  {
    default_deadline = Sim.sec 30;
    dispatch_rpc_retries = 8;
    system_max_attempts = 10;
    default_timeout = Sim.sec 10;
    dispatch_overhead = 0;
    retain_concluded = true;
    trace = true;
  }

type t = {
  sim : Sim.t;
  rpc : Rpc.t;
  node : Node.t;
  disp : Dispatch.t;
  reg : Registry.t;
  config : config;
  default_policy : default_policy;
  tracer : Trace.t;
  metrics : Metrics.t;
  rng : Rng.t;  (* split once at creation to keep downstream seeds stable *)
  jitter_salt : string;
      (* engine-stable, seed-derived salt for backoff jitter: drawn once
         at creation so the spread is a pure function of (seed, engine,
         iid, path, attempt) — never of runtime interleaving *)
  insts : (string, Instate.t) Hashtbl.t;
  mutable inst_rev : string list;  (* launch order, newest first (O(1) append) *)
  compiled : (string, Schema.task) Hashtbl.t;
      (* schema cache keyed by root ^ NUL ^ script: a capacity workload
         launching the same script 100k times compiles it once and all
         instances share one schema tree *)
  mutable seq : int;
  mutable epoch : int;
  mutable orphans : Instate.t list;
      (* running instances held in memory when the node crashed; any
         whose launch transaction presumed-aborted are re-persisted
         after recovery (an accepted launch must survive) *)
}

let node_id t = Node.id t.node
let node t = t.node
let default_policy t = t.default_policy
let rpc t = t.rpc
let trace t = t.tracer
let metrics t = t.metrics
let registry t = t.reg
let pkey = Wstate.path_to_string

(* every engine event carries the engine's node id as its source, so
   observers can keep the streams of co-hosted engines apart *)
let emit t ev = Sim.emit t.sim ~src:(Node.id t.node) ev

(* --- schema navigation (through dynamically bound sub-workflows) --- *)

let effective_body t task = Registry.effective t.reg task
let iview t inst = Instate.view inst ~effective:(effective_body t)
let find_task_node t inst path = Instate.find_node inst ~effective:(effective_body t) path
let task_live t inst path = Sched.task_live (iview t inst) path

(* --- spans from the policy, implementation kvs + config --- *)

(* A declared [timeout N then ...] clause is the per-attempt watchdog
   deadline; otherwise the legacy "deadline" kv, then the config-seeded
   default policy. *)
let deadline_span t task =
  match task.Schema.policy.Schema.p_timeout_ms with
  | Some n -> Sim.ms n
  | None -> (
    match Sched.impl_ms task ~key:"deadline" with
    | Some n -> Sim.ms n
    | None -> t.default_policy.dp_deadline)

(* The task's compiled policy resolved against the default policy;
   [primary] is the registry-effective implementation code. *)
let task_rpolicy t task ~primary =
  Sched.resolve_policy task ~primary ~default_max_attempts:t.default_policy.dp_max_attempts

let rpolicy_of t task =
  let primary = match effective_body t task with Sched.E_fn code -> code | _ -> "" in
  task_rpolicy t task ~primary

let timeout_span t task =
  match Sched.impl_ms task ~key:"timeout" with
  | Some n -> Sim.ms n
  | None -> t.config.default_timeout

let persist t writes k = Dispatch.persist t.disp writes k

(* --- compensation (declared [compensate <task>] on abort) --- *)

(* An abort-outcome completion of a task whose policy names a sibling
   compensation handler, not yet compensated: resolve the handler to a
   dispatchable code. The durable guard row and history row ride in the
   same transaction as the completion (exactly-once record); the
   handler's execution itself is a one-shot dispatch after commit. *)
let compensation_of t inst action =
  match action with
  | Sched.Complete { a_path; a_kind = Ast.Abort_outcome; _ } -> (
    match find_task_node t inst a_path with
    | Some task -> (
      match task.Schema.policy.Schema.p_compensate with
      | Some target when not (Instate.is_compensated inst a_path) -> (
        let tpath = Sched.parent_path a_path @ [ target ] in
        match find_task_node t inst tpath with
        | Some handler -> (
          match effective_body t handler with
          | Sched.E_fn code -> Some (a_path, target, tpath, handler, code)
          | Sched.E_compound _ | Sched.E_missing _ -> None)
        | None -> None)
      | _ -> None)
    | None -> None)
  | _ -> None

let compensation_writes t inst action =
  match compensation_of t inst action with
  | None -> []
  | Some (a_path, target, _, _, _) ->
    [
      (Wstate.key_comp inst.Instate.iid a_path, Some "1");
      Instate.history_write inst ~now:(Sim.now t.sim) ~kind:"policy-compensate"
        ~detail:(pkey a_path ^ " -> " ^ target);
    ]

(* Post-commit side of the same decision: mark the mirror, announce,
   fire the handler. The handler runs with the aborted task's chosen
   inputs; its report arrives for a non-Running path and is ignored
   (at-most-once execution, exactly-once durable record). *)
let run_compensation t inst compensation =
  match compensation with
  | None -> ()
  | Some (a_path, target, tpath, handler, code) ->
    Instate.mark_compensated inst a_path;
    emit t (Event.Policy_compensated { path = pkey a_path; task = target });
    let inputs =
      match Instate.get_chosen inst a_path with Some c -> c.Wstate.c_inputs | None -> []
    in
    let host =
      match Ast.impl_location handler.Schema.impl with Some n -> n | None -> node_id t
    in
    Dispatch.send_exec t.disp ~host ~retries:t.default_policy.dp_rpc_retries
      {
        Wfmsg.x_iid = inst.Instate.iid;
        x_path = tpath;
        x_attempt = 1;
        x_code = code;
        x_set = "compensate";
        x_inputs = inputs;
      }
      (fun _ -> ())

(* --- applying scheduler actions --- *)

(* Mirror update + the matching typed event, per action, in pass order
   (the trace subscriber turns the events into the legacy log). *)
let apply_and_announce t inst action =
  let now = Sim.now t.sim in
  let duration =
    match action with
    | Sched.Complete { a_path; _ } -> (
      match Instate.get_state inst a_path with
      | Some (Wstate.Running { started; _ }) -> now - started
      | _ -> 0)
    | _ -> 0
  in
  (* decided against the pre-commit mirror, fired after the mirror
     update below (the guard row committed with this action) *)
  let compensation = compensation_of t inst action in
  Instate.apply_action_mirror inst ~now ~deadline_of:(deadline_span t) action;
  run_compensation t inst compensation;
  match action with
  | Sched.Start _ | Sched.Arm_timer _ -> ()
  | Sched.Fire_mark { a_path; a_name; _ } ->
    emit t (Event.Task_marked { path = pkey a_path; mark = a_name })
  | Sched.Do_repeat { a_path; a_name; a_attempt; _ } ->
    emit t (Event.Task_repeated { path = pkey a_path; output = a_name; attempt = a_attempt })
  | Sched.Complete { a_path; a_name; a_kind; _ } ->
    (* a compound task's "duration" is its whole subtree's span; keep it
       out of the basic-task histogram *)
    let scope =
      match find_task_node t inst a_path with
      | Some task -> ( match effective_body t task with Sched.E_compound _ -> true | _ -> false)
      | None -> false
    in
    emit t
      (Event.Task_completed
         {
           path = pkey a_path;
           output = a_name;
           aborted = a_kind = Ast.Abort_outcome;
           duration;
           scope;
         })
  | Sched.Fail_task { a_path; a_reason } ->
    emit t (Event.Task_failed { path = pkey a_path; reason = a_reason })

let action_payload t inst action =
  Instate.action_writes inst ~now:(Sim.now t.sim) ~deadline_of:(deadline_span t) action
  @ Instate.action_history inst ~now:(Sim.now t.sim) action
  @ compensation_writes t inst action

(* --- the evaluation pump, dispatch, watchdog, failure handling --- *)

let instance_index t inst =
  match inst.Instate.index with
  | Some idx -> idx
  | None ->
    let idx = Sched.build_index ~effective:(effective_body t) inst.Instate.schema in
    inst.Instate.index <- Some idx;
    idx

(* [paths] scopes the next pass to the records just changed (push-based
   propagation through the instance's reverse-dependency index); [None]
   forces a full pass — launch, recovery, reconfiguration. *)
let rec mark_dirty ?paths t inst =
  (match paths with
  | None -> inst.Instate.pending <- Sched.All
  | Some ps -> inst.Instate.pending <- Sched.add_dirty inst.Instate.pending ps);
  inst.Instate.dirty <- true;
  if not inst.Instate.inflight then begin
    inst.Instate.inflight <- true;
    let epoch = t.epoch in
    ignore
      (Sim.schedule t.sim ~delay:0 (fun () ->
           if t.epoch = epoch && Node.up t.node then pump t inst
           else inst.Instate.inflight <- false))
  end

and pump t inst =
  inst.Instate.dirty <- false;
  if inst.Instate.status <> Wstate.Wf_running then inst.Instate.inflight <- false
  else begin
    let dirty = inst.Instate.pending in
    inst.Instate.pending <- Sched.no_dirty;
    let actions =
      Sched.scan_from (instance_index t inst) (iview t inst) ~root:inst.Instate.schema ~dirty
    in
    let actions =
      List.filter
        (function
          | Sched.Arm_timer { a_path; a_set; a_attempt; _ } ->
            Hashtbl.find_opt inst.Instate.timers_armed (pkey a_path ^ "|" ^ a_set)
            <> Some a_attempt
          | _ -> true)
        actions
    in
    List.iter (arm_timer_action t inst) actions;
    let effectful =
      Sched.prioritise (List.filter (function Sched.Arm_timer _ -> false | _ -> true) actions)
    in
    if effectful = [] then begin
      inst.Instate.inflight <- false;
      finalize t inst;
      if inst.Instate.dirty then mark_dirty t inst
    end
    else begin
      let writes = List.concat_map (action_payload t inst) effectful in
      persist t writes (fun () ->
          List.iter (apply_and_announce t inst) effectful;
          List.iter (action_side_effects t inst) effectful;
          inst.Instate.inflight <- false;
          finalize t inst;
          mark_dirty ~paths:(List.map Sched.action_path effectful) t inst)
    end
  end

and arm_timer_action t inst = function
  | Sched.Arm_timer { a_path; a_set; a_task; a_attempt } ->
    let key = pkey a_path ^ "|" ^ a_set in
    Hashtbl.replace inst.Instate.timers_armed key a_attempt;
    let epoch = t.epoch in
    let fire () =
      if
        t.epoch = epoch && Node.up t.node
        && Sched.waiting_attempt (iview t inst) a_path = Some a_attempt
      then
        persist t
          [ (Wstate.key_timer inst.Instate.iid a_path ~set:a_set, Some "1") ]
          (fun () ->
            Hashtbl.replace inst.Instate.timers key ();
            emit t (Event.Timer_fired { path = pkey a_path; set = a_set });
            mark_dirty ~paths:[ a_path ] t inst)
    in
    (* the deadline persists across crashes: recovery resumes the
       remaining wait rather than restarting the whole timeout *)
    (match Hashtbl.find_opt inst.Instate.timer_arms key with
    | Some deadline -> ignore (Sim.schedule t.sim ~delay:(max 0 (deadline - Sim.now t.sim)) fire)
    | None ->
      let deadline = Sim.now t.sim + timeout_span t a_task in
      persist t
        [ (Wstate.key_timer_arm inst.Instate.iid a_path ~set:a_set, Some (string_of_int deadline)) ]
        (fun () ->
          Hashtbl.replace inst.Instate.timer_arms key deadline;
          ignore (Sim.schedule t.sim ~delay:(max 0 (deadline - Sim.now t.sim)) fire)))
  | Sched.Start _ | Sched.Fire_mark _ | Sched.Do_repeat _ | Sched.Complete _ | Sched.Fail_task _
    -> ()

and action_side_effects t inst = function
  | Sched.Start { a_path; a_task; a_set; a_inputs; a_attempt } -> (
    match effective_body t a_task with
    | Sched.E_compound _ -> emit t (Event.Scope_opened { path = pkey a_path })
    | Sched.E_fn code ->
      emit t (Event.Task_started { path = pkey a_path; attempt = a_attempt });
      dispatch t inst ~path:a_path ~task:a_task ~code ~set:a_set ~inputs:a_inputs
        ~attempt:a_attempt
    | Sched.E_missing reason -> fail_policy t inst ~path:a_path ~task:a_task ~reason)
  | Sched.Arm_timer _ | Sched.Fire_mark _ | Sched.Do_repeat _ | Sched.Complete _
  | Sched.Fail_task _ -> ()

and dispatch t inst ~path ~task ~code ~set ~inputs ~attempt =
  (* [code] is the registry-effective primary; a declared policy maps
     the durable attempt counter onto its ranked code list, so a
     recovered engine redispatches the same alternative it was on *)
  let rp = task_rpolicy t task ~primary:code in
  let code = Sched.policy_code rp ~attempt in
  let host = match Ast.impl_location task.Schema.impl with Some n -> n | None -> node_id t in
  let epoch = t.epoch in
  Dispatch.send_exec t.disp ~host ~retries:t.default_policy.dp_rpc_retries
    { Wfmsg.x_iid = inst.Instate.iid; x_path = path; x_attempt = attempt; x_code = code;
      x_set = set; x_inputs = inputs }
    (function
      | Ok reply when reply = Wfmsg.reply_ok -> ()
      | Ok _ ->
        if t.epoch = epoch then
          fail_policy t inst ~path ~task ~reason:("host has no implementation for " ^ code)
      | Error _ -> if t.epoch = epoch then retry_task t inst ~path ~task);
  schedule_watchdog t inst ~path ~task ~attempt

and schedule_watchdog ?delay t inst ~path ~task ~attempt =
  let epoch = t.epoch in
  let span = match delay with Some d -> d | None -> deadline_span t task + Sim.ms 1 in
  let check () =
    if t.epoch = epoch && Node.up t.node && task_live t inst path then
      match Instate.get_state inst path with
      | Some (Wstate.Running { attempt = a; _ }) when a = attempt ->
        emit t (Event.Watchdog_fired { path = pkey path });
        handle_expiry t inst ~path ~task
      | _ -> ()
  in
  ignore (Sim.schedule t.sim ~delay:span check)

(* The watchdog tripped: a declared [timeout ... then ...] clause decides
   what happens; without one (or without a declared policy at all) the
   legacy path retries against the attempt budget. *)
and handle_expiry t inst ~path ~task =
  let rp = rpolicy_of t task in
  match rp.Sched.rp_timeout_ms with
  | None -> retry_task t inst ~path ~task
  | Some _ -> (
    match rp.Sched.rp_on_timeout with
    | Ast.Ta_abort -> fail_policy t inst ~path ~task ~reason:"recovery timeout"
    | Ast.Ta_alternative | Ast.Ta_substitute _ -> (
      match Instate.get_state inst path with
      | Some (Wstate.Running { attempt; set; _ }) -> (
        let target =
          match rp.Sched.rp_on_timeout with
          | Ast.Ta_substitute _ -> Sched.policy_substitute_start rp
          | Ast.Ta_alternative | Ast.Ta_abort ->
            let next = Sched.policy_next_band_start rp ~attempt in
            if next <= rp.Sched.rp_base_total then Some next else None
        in
        match target with
        | Some target when target > attempt ->
          jump_to_attempt t inst ~path ~task ~set ~rp ~attempt:target
        | Some _ ->
          (* already in the target band (e.g. the substitute itself timed
             out): a bounded retry within it, not a forward jump *)
          retry_task t inst ~path ~task
        | None -> fail_policy t inst ~path ~task ~reason:"recovery alternatives exhausted")
      | _ -> ()))

(* Timeout-driven substitution: skip the attempt counter to the first
   attempt of the target code's band. The bump is persisted like any
   retry, so the substitution itself survives a crash — recovery derives
   the active code from the counter alone. *)
and jump_to_attempt t inst ~path ~task ~set ~rp ~attempt =
  let now = Sim.now t.sim in
  let code = Sched.policy_code rp ~attempt in
  let running =
    Wstate.Running { attempt; set; started = now; deadline = now + deadline_span t task }
  in
  let inputs =
    match Instate.get_chosen inst path with Some c -> c.Wstate.c_inputs | None -> []
  in
  persist t
    [
      (Wstate.key_task inst.Instate.iid path, Some (Wstate.encode_task_state running));
      Instate.history_write inst ~now ~kind:"policy-substitute"
        ~detail:(pkey path ^ " -> " ^ code ^ " (timeout)");
    ]
    (fun () ->
      Hashtbl.replace inst.Instate.states (pkey path) running;
      emit t (Event.Task_retried { path = pkey path; attempt });
      emit t (Event.Policy_substituted { path = pkey path; code });
      match effective_body t task with
      | Sched.E_fn primary -> dispatch t inst ~path ~task ~code:primary ~set ~inputs ~attempt
      | Sched.E_compound _ | Sched.E_missing _ -> mark_dirty ~paths:[ path ] t inst)

and retry_task t inst ~path ~task =
  if not (task_live t inst path) then ()
  else
    match Instate.get_state inst path with
    | Some (Wstate.Running { attempt; set; _ }) ->
      let rp = rpolicy_of t task in
      if Sched.policy_exhausted rp ~attempt then
        fail_policy t inst ~path ~task ~reason:(Printf.sprintf "gave up after %d attempts" attempt)
      else begin
        let now = Sim.now t.sim in
        let next = attempt + 1 in
        let delay =
          Sim.ms
            (Sched.policy_backoff_jittered_ms rp ~salt:t.jitter_salt
               ~iid:inst.Instate.iid ~path ~attempt:next)
        in
        let fire_at = now + delay in
        let running =
          Wstate.Running
            { attempt = next; set; started = now; deadline = fire_at + deadline_span t task }
        in
        let inputs =
          match Instate.get_chosen inst path with Some c -> c.Wstate.c_inputs | None -> []
        in
        (* a failure-driven advance into the next band switches code *)
        let substituted =
          rp.Sched.rp_declared
          && Sched.policy_band rp ~attempt:next > Sched.policy_band rp ~attempt
        in
        let writes =
          ((Wstate.key_task inst.Instate.iid path, Some (Wstate.encode_task_state running))
          ::
          (if delay > 0 then
             (* same transaction as the attempt bump: a crash mid-backoff
                recovers the remaining budget and the remaining wait *)
             [
               ( Wstate.key_backoff inst.Instate.iid path,
                 Some (Wstate.encode_backoff (next, fire_at)) );
             ]
           else []))
          @ (if rp.Sched.rp_declared then
               [
                 Instate.history_write inst ~now ~kind:"policy-retry"
                   ~detail:
                     (Printf.sprintf "%s (attempt %d, backoff %dms)" (pkey path) next
                        (delay / Sim.ms 1));
               ]
             else [])
          @
          if substituted then
            [
              Instate.history_write inst ~now ~kind:"policy-substitute"
                ~detail:(pkey path ^ " -> " ^ Sched.policy_code rp ~attempt:next ^ " (failure)");
            ]
          else []
        in
        persist t writes (fun () ->
            Hashtbl.replace inst.Instate.states (pkey path) running;
            if delay > 0 then Instate.set_backoff inst path ~attempt:next ~fire_at;
            emit t (Event.Task_retried { path = pkey path; attempt = next });
            if rp.Sched.rp_declared then
              emit t
                (Event.Policy_retry
                   { path = pkey path; attempt = next; delay_ms = delay / Sim.ms 1 });
            if substituted then
              emit t
                (Event.Policy_substituted
                   { path = pkey path; code = Sched.policy_code rp ~attempt:next });
            match effective_body t task with
            | Sched.E_fn code ->
              if delay = 0 then dispatch t inst ~path ~task ~code ~set ~inputs ~attempt:next
              else begin
                let epoch = t.epoch in
                ignore
                  (Sim.schedule t.sim ~delay (fun () ->
                       if t.epoch = epoch && Node.up t.node && task_live t inst path then
                         match Instate.get_state inst path with
                         | Some (Wstate.Running { attempt = a; _ }) when a = next ->
                           dispatch t inst ~path ~task ~code ~set ~inputs ~attempt:next
                         | _ -> ()))
              end
            | Sched.E_compound _ | Sched.E_missing _ -> mark_dirty ~paths:[ path ] t inst)
      end
    | _ -> ()

and fail_policy t inst ~path ~task ~reason =
  let attempt = Sched.running_attempt (iview t inst) path in
  let action = Sched.fail_action task ~path ~attempt ~reason in
  persist t (action_payload t inst action) (fun () ->
      apply_and_announce t inst action;
      mark_dirty ~paths:[ Sched.action_path action ] t inst)

and finalize t inst =
  if inst.Instate.status = Wstate.Wf_running && not inst.Instate.concluding then begin
    let rpath = [ inst.Instate.schema.Schema.name ] in
    let conclude status =
      inst.Instate.concluding <- true;
      let meta = Instate.meta inst ~status in
      persist t
        [
          (Wstate.key_meta inst.Instate.iid, Some (Wstate.encode_meta meta));
          Instate.history_write inst ~now:(Sim.now t.sim) ~kind:"instance"
            ~detail:(Format.asprintf "%a" Wstate.pp_status status);
        ]
        (fun () ->
          inst.Instate.status <- status;
          emit t
            (Event.Wf_concluded
               {
                 iid = inst.Instate.iid;
                 status = Format.asprintf "%a" Wstate.pp_status status;
               });
          let callbacks = inst.Instate.callbacks in
          inst.Instate.callbacks <- [];
          List.iter (fun cb -> cb status) callbacks;
          (* bound resident memory: pump-only state always goes; with
             [retain_concluded = false] the whole mirror goes too *)
          if t.config.retain_concluded then Instate.trim_concluded inst
          else Instate.release inst)
    in
    match Instate.get_state inst rpath with
    | Some (Wstate.Done { output; objects; _ }) -> conclude (Wstate.Wf_done { output; objects })
    | Some (Wstate.Failed reason) -> conclude (Wstate.Wf_failed reason)
    | None | Some (Wstate.Waiting _ | Wstate.Running _) -> ()
  end

(* --- reports from task hosts --- *)

let apply_one t inst action =
  persist t (action_payload t inst action) (fun () ->
      apply_and_announce t inst action;
      mark_dirty ~paths:[ Sched.action_path action ] t inst)

let process_report t inst ~task ~attempt ~is_mark (r : Wfmsg.report) =
  let path = r.Wfmsg.r_path in
  match
    Sched.report_decision (iview t inst) ~task ~path ~attempt ~is_mark ~output:r.Wfmsg.r_output
      ~objects:r.Wfmsg.r_objects
  with
  | Sched.D_retry -> retry_task t inst ~path ~task
  | Sched.D_auto_restart ->
    emit t (Event.Task_auto_restarted { path = pkey path });
    retry_task t inst ~path ~task
  | Sched.D_fail reason -> fail_policy t inst ~path ~task ~reason
  | Sched.D_ignore -> ()
  | Sched.D_apply (Sched.Complete { a_name; _ } as action) ->
    (* counted when the implementation's final outcome arrives, before
       the completion is made durable (historical accounting) *)
    emit t (Event.Impl_completed { path = pkey path; output = a_name });
    apply_one t inst action
  | Sched.D_apply action -> apply_one t inst action

let handle_report t ~is_mark ~src:_ body =
  let r = Wfmsg.dec_report body in
  (match Hashtbl.find_opt t.insts r.Wfmsg.r_iid with
  | None -> ()
  | Some inst when inst.Instate.status <> Wstate.Wf_running -> ()
  | Some inst when not (task_live t inst r.Wfmsg.r_path) -> ()
  | Some inst -> (
    match (Instate.get_state inst r.Wfmsg.r_path, find_task_node t inst r.Wfmsg.r_path) with
    | Some (Wstate.Running { attempt; _ }), Some task ->
      process_report t inst ~task ~attempt ~is_mark r
    | _ -> ()));
  "ack"

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
let compile_cached t ~script ~root =
  let key = root ^ "\x00" ^ script in
  match Hashtbl.find_opt t.compiled key with
  | Some schema -> Ok schema
  | None ->
    let compiled = Frontend.compile script ~root in
    Result.iter (Hashtbl.replace t.compiled key) compiled;
    compiled

(* --- recovery --- *)

(* The one owner of "an instance's keys": its rows in a sorted
   committed-key array, in order (recovery replays them, gc deletes
   them). *)
let instance_keys keys iid = Dispatch.key_slice keys ~prefix:(Wstate.task_prefix iid)

(* [keys] is the instance's slice of the committed keys, in sorted
   order (see {!instance_keys}). *)
let rebuild_instance t ~keys iid =
  let read key = Dispatch.committed_value t.disp ~key in
  match read (Wstate.key_meta iid) with
  | None -> ()
  | Some meta_raw -> (
    let meta = Wstate.decode_meta meta_raw in
    let script_text =
      match read (Wstate.key_reconf iid) with Some s -> s | None -> meta.Wstate.m_script
    in
    match compile_cached t ~script:script_text ~root:meta.Wstate.m_root with
    | Error { Frontend.stage = "resolve"; msg; _ } ->
      emit t (Event.Recovery_error { detail = Printf.sprintf "%s: %s" iid msg })
    | Error _ -> emit t (Event.Recovery_error { detail = iid ^ ": stored script no longer parses" })
    | Ok schema ->
      let inst =
        Instate.create ~iid ~script_text ~schema ~status:meta.Wstate.m_status
          ~external_inputs:meta.Wstate.m_inputs
      in
      Instate.load_committed inst ~read ~keys;
      Hashtbl.replace t.insts iid inst;
      (* honour persisted deadlines: executions orphaned by the crash
         are re-dispatched as soon as they expire *)
      List.iter
        (fun (path, task, attempt, deadline) ->
          let remaining = max 0 (deadline - Sim.now t.sim) + Sim.ms 1 in
          schedule_watchdog ~delay:remaining t inst ~path ~task ~attempt)
        (Instate.running_leaves inst ~effective:(effective_body t));
      (* pending policy backoffs: resume the remaining wait against the
         persisted attempt counter, then redispatch that same attempt —
         the budget carries over, it is never reset *)
      List.iter
        (fun (path, attempt, fire_at) ->
          match (find_task_node t inst path, Instate.get_state inst path) with
          | Some task, Some (Wstate.Running { attempt = a; set; _ }) when a = attempt -> (
            match effective_body t task with
            | Sched.E_fn code ->
              let inputs =
                match Instate.get_chosen inst path with
                | Some c -> c.Wstate.c_inputs
                | None -> []
              in
              let epoch = t.epoch in
              ignore
                (Sim.schedule t.sim ~delay:(max 0 (fire_at - Sim.now t.sim)) (fun () ->
                     if t.epoch = epoch && Node.up t.node && task_live t inst path then
                       match Instate.get_state inst path with
                       | Some (Wstate.Running { attempt = a2; _ }) when a2 = attempt ->
                         dispatch t inst ~path ~task ~code ~set ~inputs ~attempt
                       | _ -> ()))
            | Sched.E_compound _ | Sched.E_missing _ -> ())
          | _ -> ())
        (Instate.pending_backoffs inst);
      if inst.Instate.status = Wstate.Wf_running then mark_dirty t inst)

let dir_iid_of_key key =
  String.sub key (String.length Wstate.dir_prefix) (String.length key - String.length Wstate.dir_prefix)

(* A commit finished by the recovery termination protocol can add an
   instance to the store after [recover] already scanned it: reconcile
   exactly the iids named by the commit's directory rows, O(writes). *)
let reconcile_one t iid =
  if not (Hashtbl.mem t.insts iid) then begin
    rebuild_instance t ~keys:(instance_keys (Dispatch.committed_key_array t.disp) iid) iid;
    if Hashtbl.mem t.insts iid && not (List.mem iid t.inst_rev) then
      t.inst_rev <- iid :: t.inst_rev
  end

(* Re-persist an instance whose launch transaction was lost to a crash
   before its decision. A committed-but-unapplied launch is instead
   picked up by [reconcile] once the termination protocol applies it, so
   wait one poll period before concluding the launch is really gone.
   The orphan stays in [t.orphans] until this attempt actually runs —
   another crash before the timer fires must not lose it (each recovery
   re-schedules the survivors). *)
let relaunch_orphan t (orphan : Instate.t) =
  let epoch = t.epoch in
  let retry_delay = Sim.ms 120 in
  let forget () =
    t.orphans <- List.filter (fun (o : Instate.t) -> o.Instate.iid <> orphan.Instate.iid) t.orphans
  in
  let attempt () =
    if t.epoch = epoch && Node.up t.node then
      if
        Hashtbl.mem t.insts orphan.Instate.iid
        || Dispatch.committed_value t.disp ~key:(Wstate.key_meta orphan.Instate.iid) <> None
      then forget () (* became durable after all; reconcile covers it *)
      else begin
        forget ();
        let inst = Instate.reset orphan in
        let meta = Instate.meta inst ~status:Wstate.Wf_running in
        if not (List.mem inst.Instate.iid t.inst_rev) then
          t.inst_rev <- inst.Instate.iid :: t.inst_rev;
        Hashtbl.replace t.insts inst.Instate.iid inst;
        emit t (Event.Wf_relaunched { iid = inst.Instate.iid });
        t.seq <- t.seq + 1;
        persist t
          [
            (Wstate.key_dir inst.Instate.iid, Some (Wstate.encode_dir_seq t.seq));
            (Wstate.key_meta inst.Instate.iid, Some (Wstate.encode_meta meta));
          ]
          (fun () -> mark_dirty t inst)
      end
  in
  ignore (Sim.schedule t.sim ~delay:retry_delay attempt)

let recover t () =
  t.epoch <- t.epoch + 1;
  Hashtbl.reset t.insts;
  (* one sorted key read serves the whole replay: the directory rows and
     each instance's rows are contiguous slices of it *)
  let keys = Dispatch.committed_key_array t.disp in
  (* per-instance directory rows carry the launch sequence number so the
     replay order matches the original launch order *)
  let iids =
    Dispatch.key_slice keys ~prefix:Wstate.dir_prefix
    |> List.filter_map (fun key ->
           Option.bind (Dispatch.committed_value t.disp ~key) (fun raw ->
               Option.map (fun seq -> (seq, dir_iid_of_key key)) (Wstate.decode_dir_seq raw)))
    |> List.sort compare |> List.map snd
  in
  t.inst_rev <- List.rev iids;
  List.iter (fun iid -> rebuild_instance t iid ~keys:(instance_keys keys iid)) iids;
  t.orphans <- List.filter (fun (o : Instate.t) -> not (Hashtbl.mem t.insts o.Instate.iid)) t.orphans;
  List.iter (relaunch_orphan t) t.orphans;
  emit t (Event.Recovery_replayed { instances = List.length t.inst_rev })

(* --- construction and public API --- *)

let attach_host_on t node =
  Exec_host.attach ~rpc:t.rpc ~node ~registry:t.reg ~engine_node:(node_id t)

let create ?(config = default_config) ~rpc ~node ~mgr ~participant ~registry:reg () =
  let sim = Network.sim (Rpc.network rpc) in
  let tracer = Trace.create () in
  let metrics = Metrics.create () in
  (* the legacy trace is now a bus subscriber; engine-originated events
     render to their historical kind/detail strings, the rest to None.
     Both the trace and the metrics registry are scoped to this engine's
     source label — in a multi-engine cluster each engine only observes
     its own stream (cluster-wide views subscribe unfiltered). *)
  let own = Node.id node in
  if config.trace then
    Event.subscribe (Sim.events sim) (fun ~at ~src ev ->
        if src = own then
          match Event.to_trace ev with
          | Some (kind, detail) -> Trace.record tracer ~at ~kind detail
          | None -> ());
  Metrics.attach metrics ~src:own (Sim.events sim);
  let rng = Rng.split (Sim.rng sim) in
  let t =
    {
      sim;
      rpc;
      node;
      disp = Dispatch.create ~overhead:config.dispatch_overhead ~rpc ~node ~mgr ~participant ();
      reg;
      config;
      default_policy =
        {
          dp_deadline = config.default_deadline;
          dp_rpc_retries = config.dispatch_rpc_retries;
          dp_max_attempts = config.system_max_attempts;
        };
      tracer;
      metrics;
      rng;
      (* a copy, not another split: the root rng must advance exactly as
         before so downstream components keep their seed streams *)
      jitter_salt = own ^ "#" ^ Int64.to_string (Rng.next_int64 (Rng.copy rng));
      insts = Hashtbl.create 8;
      inst_rev = [];
      compiled = Hashtbl.create 8;
      seq = 0;
      epoch = 1;
      orphans = [];
    }
  in
  Node.serve node ~service:(Wfmsg.service_done ~engine:own) (handle_report t ~is_mark:false);
  Node.serve node ~service:(Wfmsg.service_mark ~engine:own) (handle_report t ~is_mark:true);
  Node.on_crash node (fun () ->
      t.epoch <- t.epoch + 1;
      let running =
        Hashtbl.fold
          (fun _ (inst : Instate.t) acc ->
            if inst.Instate.status = Wstate.Wf_running then inst :: acc else acc)
          t.insts []
      in
      t.orphans <- running @ t.orphans);
  Node.on_recover node (recover t);
  Dispatch.on_apply t.disp (fun writes ->
      let dir_iids =
        List.filter_map
          (fun (key, _) ->
            if String.starts_with ~prefix:Wstate.dir_prefix key then Some (dir_iid_of_key key)
            else None)
          writes
      in
      if dir_iids <> [] then begin
        let epoch = t.epoch in
        ignore
          (Sim.schedule sim ~delay:0 (fun () ->
               if t.epoch = epoch && Node.up node then List.iter (reconcile_one t) dir_iids))
      end);
  ignore (attach_host_on t node);
  t

let attach_host t node = attach_host_on t node

(* An instance owns every store key under [wf:<iid>:] (gc deletes them,
   recovery slices them out), so an id must not make that prefix cover
   keys it does not own: a ':' would nest it over another instance's
   rows ([wf:a:] covers [wf:a:t:x:meta]), and ["dir"] over the
   directory rows ([wf:dir:]). *)
let reserved_iid i = String.contains i ':' || String.equal i "dir"

let launch ?iid t ~script ~root ~inputs =
  match compile_cached t ~script ~root with
  | Error e -> Error (Frontend.error_to_string e)
  | Ok _ when (match iid with Some i -> Hashtbl.mem t.insts i | None -> false) ->
    Error ("duplicate instance id " ^ Option.get iid)
  | Ok _ when (match iid with Some i -> reserved_iid i | None -> false) ->
    Error ("reserved instance id " ^ Option.get iid ^ " (ids may not contain ':' or be \"dir\")")
  | Ok schema ->
    t.seq <- t.seq + 1;
    let iid =
      match iid with Some i -> i | None -> Printf.sprintf "wf-%d-%d" t.epoch t.seq
    in
    let inst =
      Instate.create ~iid ~script_text:script ~schema ~status:Wstate.Wf_running
        ~external_inputs:inputs
    in
    let meta = Instate.meta inst ~status:Wstate.Wf_running in
    (* visible immediately: callers can attach on_complete before the
       launch transaction commits; scheduling starts once durable *)
    t.inst_rev <- iid :: t.inst_rev;
    Hashtbl.replace t.insts iid inst;
    emit t (Event.Wf_launched { iid; root });
    persist t
      [
        (Wstate.key_dir iid, Some (Wstate.encode_dir_seq t.seq));
        (Wstate.key_meta iid, Some (Wstate.encode_meta meta));
        Instate.history_write inst ~now:(Sim.now t.sim) ~kind:"launch" ~detail:("root=" ^ root);
      ]
      (fun () -> mark_dirty t inst);
    Ok iid

let status t iid =
  Option.map (fun (inst : Instate.t) -> inst.Instate.status) (Hashtbl.find_opt t.insts iid)

let on_complete t iid cb =
  match Hashtbl.find_opt t.insts iid with
  | None -> ()
  | Some inst -> (
    match inst.Instate.status with
    | Wstate.Wf_running -> inst.Instate.callbacks <- inst.Instate.callbacks @ [ cb ]
    | done_or_failed -> cb done_or_failed)

let instances t = List.rev t.inst_rev

let task_state t iid ~path =
  match Hashtbl.find_opt t.insts iid with
  | None -> None
  | Some inst -> Instate.get_state inst path

let task_states t iid =
  match Hashtbl.find_opt t.insts iid with
  | None -> []
  | Some inst ->
    let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) inst.Instate.states [] in
    List.sort (fun (a, _) (b, _) -> String.compare a b) all

type policy_budget = {
  pb_path : string;
  pb_attempts : int;
  pb_backoff_remaining : Sim.time;
  pb_compensated : bool;
}

let policy_budgets t iid =
  match Hashtbl.find_opt t.insts iid with
  | None -> []
  | Some inst ->
    let now = Sim.now t.sim in
    (* union of every path the policy machinery has touched: task states
       (attempt counters), pending backoffs, recorded compensations *)
    let paths = Hashtbl.create 16 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace paths k ()) inst.Instate.states;
    Hashtbl.iter (fun k _ -> Hashtbl.replace paths k ()) inst.Instate.backoffs;
    Hashtbl.iter (fun k _ -> Hashtbl.replace paths k ()) inst.Instate.compensated;
    Hashtbl.fold
      (fun key () acc ->
        let attempts =
          match Hashtbl.find_opt inst.Instate.states key with
          | Some (Wstate.Waiting { attempt })
          | Some (Wstate.Running { attempt; _ })
          | Some (Wstate.Done { attempt; _ }) ->
            attempt
          | Some _ | None -> 0
        in
        let backoff_remaining =
          match Hashtbl.find_opt inst.Instate.backoffs key with
          | Some (_, fire_at) -> max 0 (fire_at - now)
          | None -> 0
        in
        { pb_path = key; pb_attempts = attempts; pb_backoff_remaining = backoff_remaining;
          pb_compensated = Hashtbl.mem inst.Instate.compensated key }
        :: acc)
      paths []
    |> List.sort (fun a b -> String.compare a.pb_path b.pb_path)

let marks_of t iid ~path =
  match Hashtbl.find_opt t.insts iid with None -> [] | Some inst -> Instate.get_marks inst path

let history t iid = Dispatch.committed_history t.disp ~iid

let histories t =
  let keys = Dispatch.committed_key_array t.disp in
  List.map (fun iid -> (iid, Dispatch.history_in t.disp keys ~iid)) (instances t)

let quiescent t iid =
  match Hashtbl.find_opt t.insts iid with
  | None -> false
  | Some inst ->
    inst.Instate.status = Wstate.Wf_running
    && Instate.running_leaves inst ~effective:(effective_body t) = []

let cancel t iid ~reason k =
  match Hashtbl.find_opt t.insts iid with
  | None -> k (Error ("no such instance " ^ iid))
  | Some inst when inst.Instate.status <> Wstate.Wf_running ->
    k (Error ("instance " ^ iid ^ " already finished"))
  | Some inst ->
    let status = Wstate.Wf_failed ("cancelled: " ^ reason) in
    let meta = Instate.meta inst ~status in
    inst.Instate.concluding <- true;
    persist t
      [ (Wstate.key_meta iid, Some (Wstate.encode_meta meta)) ]
      (fun () ->
        inst.Instate.status <- status;
        emit t (Event.Wf_cancelled { iid; reason });
        let callbacks = inst.Instate.callbacks in
        inst.Instate.callbacks <- [];
        List.iter (fun cb -> cb status) callbacks;
        k (Ok ()))

let abort_task t iid ~path k =
  match Hashtbl.find_opt t.insts iid with
  | None -> k (Error ("no such instance " ^ iid))
  | Some inst -> (
    match (Instate.get_state inst path, find_task_node t inst path) with
    | (None | Some (Wstate.Waiting _ | Wstate.Running _)), Some task ->
      emit t (Event.User_aborted { path = pkey path });
      fail_policy t inst ~path ~task ~reason:"aborted by user";
      k (Ok ())
    | Some (Wstate.Done _ | Wstate.Failed _), _ -> k (Error (pkey path ^ " already finished"))
    | _, None -> k (Error ("no task at path " ^ pkey path)))

let compact t = Dispatch.compact t.disp

let gc t iid k =
  match Hashtbl.find_opt t.insts iid with
  | None -> k (Error ("no such instance " ^ iid))
  | Some inst when inst.Instate.status = Wstate.Wf_running ->
    k (Error ("instance " ^ iid ^ " is still running"))
  | Some _ ->
    let doomed = instance_keys (Dispatch.committed_key_array t.disp) iid in
    let writes = (Wstate.key_dir iid, None) :: List.map (fun key -> (key, None)) doomed in
    persist t writes (fun () ->
        t.inst_rev <- List.filter (fun i -> i <> iid) t.inst_rev;
        Hashtbl.remove t.insts iid;
        emit t (Event.Wf_collected { iid });
        k (Ok ()))

let reconfigure t iid ~transform k =
  match Hashtbl.find_opt t.insts iid with
  | None -> k (Error ("no such instance " ^ iid))
  | Some inst -> (
    match
      Reconfig.rewrite ~script:inst.Instate.script_text
        ~root:inst.Instate.schema.Schema.name ~transform
    with
    | Error msg -> k (Error msg)
    | Ok (text, schema) ->
      persist t
        [ (Wstate.key_reconf iid, Some text) ]
        (fun () ->
          inst.Instate.script_text <- text;
          inst.Instate.schema <- schema;
          (* the reverse-dependency index was built against the old
             tree; drop it so the next pump rebuilds from the new one *)
          inst.Instate.index <- None;
          emit t (Event.Wf_reconfigured { iid });
          mark_dirty t inst;
          k (Ok ())))

(* --- introspection counters (metrics registry, fed by the bus) --- *)

let dispatches_total t = Metrics.value t.metrics "engine.dispatches"
let completions_total t = Metrics.value t.metrics "engine.completions"
let system_retries_total t = Metrics.value t.metrics "engine.system_retries"
let marks_total t = Metrics.value t.metrics "engine.marks"
let policy_retries_total t = Metrics.value t.metrics "engine.policy_retries"
let policy_substitutions_total t = Metrics.value t.metrics "engine.policy_substitutions"
let policy_compensations_total t = Metrics.value t.metrics "engine.policy_compensations"
let reconfigs_total t = Metrics.value t.metrics "engine.reconfigs"
let recoveries_total t = Metrics.value t.metrics "engine.recoveries"

(* Residency accounting for the capacity bench: reachable words from
   the live mirror table, sampled on demand (walking 100k instances is
   too expensive to do implicitly). *)
let observe_residency t =
  let words = Obj.reachable_words (Obj.repr t.insts) in
  Metrics.set t.metrics "engine.resident_words" words;
  Metrics.set t.metrics "engine.ready_queue_len" (Dispatch.ready_len t.disp);
  words
