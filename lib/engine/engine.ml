(* The execution service, layered:

   - Sched    — pure scheduling core (readiness, selection, Fig 3 rules)
   - Policy   — pure recovery decisions (attempt bands, backoff, timeouts)
   - Instate  — per-instance mirrors, applied rows + action -> rows
   - Dispatch — effects: transactions, RPC dispatch, committed reads
   - Event/Metrics — typed observability spine (Sim.events)

   This module orchestrates: it runs the evaluation pump, owns the
   watchdogs, executes policy decisions ([advance]), and wires
   crash/recovery. Every timer and deferred event it schedules is fenced
   by the node's incarnation ({!Node.incarnation}). *)

type config = {
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

(* RPC send budget of one dispatch to a task host *)
let dispatch_rpc_retries = 8

(* wait of a timer input set that declares no "timeout" kv *)
let default_timeout = Sim.sec 10

type t = {
  sim : Sim.t;
  rpc : Rpc.t;
  node : Node.t;
  disp : Dispatch.t;
  reg : Registry.t;
  config : config;
  mutable log : (Sim.time * Event.t) list;
      (* this engine's own events, newest first; kept only with
         [config.trace] *)
  metrics : Metrics.t;
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
  mutable orphans : Instate.t list;
      (* running instances held in memory when the node crashed; the
         next recovery launches again any whose launch rows were lost
         (an accepted launch must survive), then empties the list *)
}

let node t = t.node
let trace t = List.rev t.log
let metrics t = t.metrics
let pkey = Wstate.path_to_string

(* every engine event carries the engine's node id as its source, so
   observers can keep the streams of co-hosted engines apart *)
let emit t ev =
  if t.config.trace then t.log <- (Sim.now t.sim, ev) :: t.log;
  Sim.emit t.sim ~src:(Node.id t.node) ev

(* --- schema navigation (through dynamically bound sub-workflows) --- *)

let effective_body t task = Registry.effective t.reg task
let iview t inst = Instate.view inst ~effective:(effective_body t)
let find_task_node t inst path = Instate.find_node inst ~effective:(effective_body t) path
let task_live t inst path = Sched.task_live (iview t inst) path

(* --- spans from the policy, implementation kvs + config --- *)

(* A declared [timeout N then ...] clause is the per-attempt watchdog
   deadline; otherwise the legacy "deadline" kv, then the config
   default. *)
let deadline_span t task =
  match task.Schema.policy.Schema.p_timeout_ms with
  | Some n -> Sim.ms n
  | None -> (
    match Sched.impl_ms task ~key:"deadline" with
    | Some n -> Sim.ms n
    | None -> t.config.default_deadline)

(* The task's compiled policy resolved against the config's default
   attempt budget. *)
let rpolicy t task = Policy.resolve task ~default_max_attempts:t.config.system_max_attempts

let timeout_span task =
  match Sched.impl_ms task ~key:"timeout" with Some n -> Sim.ms n | None -> default_timeout

let chosen_inputs inst path =
  match Instate.get_chosen inst path with Some c -> c.Wstate.c_inputs | None -> []

let persist t writes k = Dispatch.persist t.disp writes k

let encode_rows inst rows = List.map (Wstate.encode inst.Instate.iid) rows

(* Persist an instance's rows; once they commit, the mirror applies the
   same typed rows before [k] runs. *)
let persist_rows t inst rows k =
  persist t (encode_rows inst (Instate.stage inst rows)) (fun () ->
      Instate.applied inst rows;
      k ())

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

let compensation_rows t inst action =
  match compensation_of t inst action with
  | None -> []
  | Some (a_path, target, _, _, _) ->
    [
      Wstate.Put (Wstate.Compensated (pkey a_path), ());
      Instate.history_row inst ~now:(Sim.now t.sim) ~kind:"policy-compensate"
        ~detail:(pkey a_path ^ " -> " ^ target);
    ]

(* Post-commit side of the same decision: announce and fire the handler.
   The handler runs with the aborted task's chosen inputs; its report
   arrives for a non-Running path and is ignored (at-most-once
   execution, exactly-once durable record). *)
let run_compensation t inst compensation =
  match compensation with
  | None -> ()
  | Some (a_path, target, tpath, handler, code) ->
    emit t (Event.Policy_compensated { path = pkey a_path; task = target });
    let host =
      match Ast.impl_location handler.Schema.impl with Some n -> n | None -> Node.id t.node
    in
    Dispatch.send_exec t.disp ~host ~retries:dispatch_rpc_retries
      {
        Wfmsg.x_iid = inst.Instate.iid;
        x_path = tpath;
        x_attempt = 1;
        x_code = code;
        x_set = "compensate";
        x_inputs = chosen_inputs inst a_path;
      }
      (fun _ -> ())

(* --- applying scheduler actions --- *)

(* Apply one action's committed rows to the mirror and announce it, per
   action, in pass order. *)
let apply_and_announce t inst action rows =
  let now = Sim.now t.sim in
  let duration =
    match action with
    | Sched.Complete { a_path; _ } -> (
      match Instate.get_state inst a_path with
      | Some (Wstate.Running { started; _ }) -> now - started
      | _ -> 0)
    | _ -> 0
  in
  (* decided against the pre-commit mirror, fired after the rows below
     (the guard row committed with this action) *)
  let compensation = compensation_of t inst action in
  Instate.applied inst rows;
  (* a started task waits no more; a finished or repeating one runs no
     more, so its queued timers go *)
  (match action with
  | Sched.Start { a_path; _ } | Sched.Complete { a_path; _ } | Sched.Fail_task { a_path; _ } ->
    Instate.cancel_timers_at inst t.sim a_path
  | Sched.Do_repeat { a_path; _ } -> Instate.cancel_timers_at ~below:true inst t.sim a_path
  | Sched.Fire_mark _ | Sched.Arm_timer _ -> ());
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

(* The compensation's rows follow the action's, but its history row
   takes the lower index. *)
let action_rows t inst action =
  let compensation = compensation_rows t inst action in
  let rows = Instate.action_rows inst ~now:(Sim.now t.sim) ~deadline_of:(deadline_span t) action in
  match compensation with [] -> rows | _ -> rows @ compensation

(* --- the evaluation pump, dispatch, watchdog, failure handling --- *)

(* [paths] scopes the next pass to the records just changed (push-based
   propagation through the instance's reverse-dependency index); [None]
   forces a full pass — launch, recovery, reconfiguration. *)
let rec mark_dirty ?paths t inst =
  (match paths with
  | None -> inst.Instate.pending <- Sched.All
  | Some ps -> inst.Instate.pending <- Sched.add_dirty inst.Instate.pending ps);
  if not inst.Instate.inflight then begin
    inst.Instate.inflight <- true;
    let inc = Node.incarnation t.node in
    ignore
      (Sim.schedule t.sim ~delay:0 (fun () ->
           if Node.incarnation t.node = inc then pump t inst
           else inst.Instate.inflight <- false))
  end

and pump t inst =
  if inst.Instate.status <> Wstate.Wf_running then inst.Instate.inflight <- false
  else begin
    let dirty = inst.Instate.pending in
    inst.Instate.pending <- Sched.no_dirty;
    let actions =
      Sched.scan_from
        (Instate.index inst ~effective:(effective_body t))
        (iview t inst) ~root:inst.Instate.schema ~dirty
    in
    let actions =
      List.filter
        (function
          | Sched.Arm_timer { a_path; a_set; a_attempt; _ } ->
            Hashtbl.find_opt inst.Instate.timers_armed (pkey a_path, a_set)
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
      finalize t inst
    end
    else begin
      (* each action's rows are staged before the next one's are built *)
      let rows =
        List.map (fun action -> Instate.stage inst (action_rows t inst action)) effectful
      in
      persist t (List.concat_map (encode_rows inst) rows) (fun () ->
          List.iter2 (apply_and_announce t inst) effectful rows;
          List.iter (action_side_effects t inst) effectful;
          inst.Instate.inflight <- false;
          finalize t inst;
          mark_dirty ~paths:(List.map Sched.action_path effectful) t inst)
    end
  end

and arm_timer_action t inst = function
  | Sched.Arm_timer { a_path; a_set; a_task; a_attempt } ->
    let key = (pkey a_path, a_set) in
    Hashtbl.replace inst.Instate.timers_armed key a_attempt;
    let inc = Node.incarnation t.node in
    let fire () =
      if
        Node.incarnation t.node = inc
        && Sched.waiting_attempt (iview t inst) a_path = Some a_attempt
      then
        persist_rows t inst
          [ Wstate.Put (Wstate.Timer_fired (pkey a_path, a_set), ()) ]
          (fun () ->
            emit t (Event.Timer_fired { path = pkey a_path; set = a_set });
            mark_dirty ~paths:[ a_path ] t inst)
    in
    (* the deadline persists across crashes: recovery resumes the
       remaining wait rather than restarting the whole timeout *)
    let arm deadline =
      Instate.set_alarm inst t.sim a_path
        (Instate.Timer (a_set, Sim.schedule t.sim ~delay:(max 0 (deadline - Sim.now t.sim)) fire))
    in
    (match Hashtbl.find_opt inst.Instate.timer_arms key with
    | Some deadline -> arm deadline
    | None ->
      let deadline = Sim.now t.sim + timeout_span a_task in
      persist_rows t inst
        [ Wstate.Put (Wstate.Timer_armed (pkey a_path, a_set), deadline) ]
        (fun () -> arm deadline))
  | Sched.Start _ | Sched.Fire_mark _ | Sched.Do_repeat _ | Sched.Complete _ | Sched.Fail_task _
    -> ()

and action_side_effects t inst = function
  | Sched.Start { a_path; a_task; a_set; a_inputs; a_attempt } -> (
    match effective_body t a_task with
    | Sched.E_compound _ -> emit t (Event.Scope_opened { path = pkey a_path })
    | Sched.E_fn _ ->
      emit t (Event.Task_started { path = pkey a_path; attempt = a_attempt });
      dispatch t inst ~path:a_path ~task:a_task ~set:a_set ~inputs:a_inputs ~attempt:a_attempt
    | Sched.E_missing reason -> fail_policy t inst ~path:a_path ~task:a_task ~reason)
  | Sched.Arm_timer _ | Sched.Fire_mark _ | Sched.Do_repeat _ | Sched.Complete _
  | Sched.Fail_task _ -> ()

and dispatch t inst ~path ~task ~set ~inputs ~attempt =
  (* a declared policy maps the durable attempt counter onto its ranked
     code list, so a recovered engine redispatches the same alternative
     it was on *)
  let code = Policy.code (rpolicy t task) ~attempt in
  let host = match Ast.impl_location task.Schema.impl with Some n -> n | None -> Node.id t.node in
  Dispatch.send_exec t.disp ~host ~retries:dispatch_rpc_retries
    { Wfmsg.x_iid = inst.Instate.iid; x_path = path; x_attempt = attempt; x_code = code;
      x_set = set; x_inputs = inputs }
    (function
      | Ok reply when reply = Wfmsg.reply_ok -> ()
      | Ok _ -> fail_policy t inst ~path ~task ~reason:("host has no implementation for " ^ code)
      | Error _ -> advance t inst ~path ~task Policy.after_failure);
  schedule_watchdog t inst ~path ~task ~attempt

(* Dispatch [attempt] after [delay] — a policy backoff — unless by then
   the engine has crashed, the task's scope has closed or the attempt
   has moved on. *)
and dispatch_after t inst ~path ~task ~set ~inputs ~attempt delay =
  let inc = Node.incarnation t.node in
  Instate.set_alarm inst t.sim path
    (Instate.Backoff
       (Sim.schedule t.sim ~delay (fun () ->
            if Node.incarnation t.node = inc && task_live t inst path then
              match Instate.get_state inst path with
              | Some (Wstate.Running { attempt = a; _ }) when a = attempt ->
                dispatch t inst ~path ~task ~set ~inputs ~attempt
              | _ -> ())))

and schedule_watchdog ?delay t inst ~path ~task ~attempt =
  let inc = Node.incarnation t.node in
  let span = match delay with Some d -> d | None -> deadline_span t task + Sim.ms 1 in
  let check () =
    if Node.incarnation t.node = inc && task_live t inst path then
      match Instate.get_state inst path with
      | Some (Wstate.Running { attempt = a; _ }) when a = attempt ->
        emit t (Event.Watchdog_fired { path = pkey path });
        advance t inst ~path ~task Policy.after_timeout
      | _ -> ()
  in
  Instate.set_watchdog inst t.sim path ~attempt (fun () -> Sim.schedule t.sim ~delay:span check)

(* The one attempt transition of a running task: [decide] is the
   policy's answer to a failure or to an expired watchdog. A retry bumps
   the durable attempt counter with its backoff and audit rows in one
   transaction — a crash mid-backoff recovers the remaining budget and
   the remaining wait, and recovery derives the active code from the
   counter alone — then dispatches the new attempt. *)
and advance t inst ~path ~task decide =
  match Instate.get_state inst path with
  | Some (Wstate.Running { attempt; set; _ }) when task_live t inst path -> (
    let rp = rpolicy t task in
    match decide rp ~salt:t.jitter_salt ~iid:inst.Instate.iid ~path ~attempt with
    | Policy.Give_up reason -> fail_policy t inst ~path ~task ~reason
    | Policy.Retry { attempt; delay_ms; code; substituted; cause } ->
      let now = Sim.now t.sim in
      let delay = Sim.ms delay_ms in
      let fire_at = now + delay in
      let running =
        Wstate.Running { attempt; set; started = now; deadline = fire_at + deadline_span t task }
      in
      let inputs = chosen_inputs inst path in
      let retried = Policy.declared rp && cause = Policy.Failure in
      let history kind detail = Instate.history_row inst ~now ~kind ~detail in
      let rows =
        List.concat
          [
            [ Wstate.Put (Wstate.Task (pkey path), running) ];
            (if delay > 0 then [ Wstate.Put (Wstate.Backoff (pkey path), (attempt, fire_at)) ]
             else []);
            (if retried then
               [
                 history "policy-retry"
                   (Printf.sprintf "%s (attempt %d, backoff %dms)" (pkey path) attempt delay_ms);
               ]
             else []);
            (if substituted then
               [
                 history "policy-substitute"
                   (Printf.sprintf "%s -> %s (%s)" (pkey path) code
                      (match cause with Policy.Failure -> "failure" | Policy.Timeout -> "timeout"));
               ]
             else []);
          ]
      in
      persist_rows t inst rows (fun () ->
          (* the old attempt is over: its watchdog goes now, not when the
             new attempt is dispatched after the backoff *)
          Instate.cancel_timers_at inst t.sim path;
          emit t (Event.Task_retried { path = pkey path; attempt });
          if retried then emit t (Event.Policy_retry { path = pkey path; attempt; delay_ms });
          if substituted then emit t (Event.Policy_substituted { path = pkey path; code });
          match effective_body t task with
          | Sched.E_fn _ when delay = 0 -> dispatch t inst ~path ~task ~set ~inputs ~attempt
          | Sched.E_fn _ -> dispatch_after t inst ~path ~task ~set ~inputs ~attempt delay
          | Sched.E_compound _ | Sched.E_missing _ -> mark_dirty ~paths:[ path ] t inst))
  | _ -> ()

and fail_policy t inst ~path ~task ~reason =
  let attempt = Sched.running_attempt (iview t inst) path in
  apply_one t inst (Sched.fail_action task ~path ~attempt ~reason)

and apply_one t inst action =
  let rows = Instate.stage inst (action_rows t inst action) in
  persist t (encode_rows inst rows) (fun () ->
      apply_and_announce t inst action rows;
      mark_dirty ~paths:[ Sched.action_path action ] t inst)

and finalize t inst =
  if inst.Instate.status = Wstate.Wf_running && not inst.Instate.concluding then begin
    let concluded status =
      conclude t inst status
        (Event.Wf_concluded
           { iid = inst.Instate.iid; status = Format.asprintf "%a" Wstate.pp_status status })
        ignore
    in
    match Instate.get_state inst [ inst.Instate.schema.Schema.name ] with
    | Some (Wstate.Done { output; objects; _ }) -> concluded (Wstate.Wf_done { output; objects })
    | Some (Wstate.Failed reason) -> concluded (Wstate.Wf_failed reason)
    | None | Some (Wstate.Waiting _ | Wstate.Running _) -> ()
  end

(* The one way an instance stops running (its root finished, or a user
   cancelled it): persist the final meta and the [instance] history row,
   then announce [ev], fire the completion callbacks and bound resident
   memory — pump-only state always goes; with [retain_concluded = false]
   the whole mirror goes too. *)
and conclude t inst status ev k =
  inst.Instate.concluding <- true;
  persist_rows t inst
    [
      Wstate.Put (Wstate.Meta, Instate.meta inst ~status);
      Instate.history_row inst ~now:(Sim.now t.sim) ~kind:"instance"
        ~detail:(Format.asprintf "%a" Wstate.pp_status status);
    ]
    (fun () ->
      emit t ev;
      let callbacks = inst.Instate.callbacks in
      inst.Instate.callbacks <- [];
      List.iter (fun cb -> cb status) callbacks;
      Instate.cancel_timers inst t.sim;
      if t.config.retain_concluded then Instate.trim_concluded inst else Instate.release inst;
      k ())

(* --- reports from task hosts --- *)

let process_report t inst ~task ~attempt ~is_mark (r : Wfmsg.report) =
  let path = r.Wfmsg.r_path in
  match
    Sched.report_decision (iview t inst) ~task ~path ~attempt ~is_mark ~output:r.Wfmsg.r_output
      ~objects:r.Wfmsg.r_objects
  with
  | Sched.D_retry -> advance t inst ~path ~task Policy.after_failure
  | Sched.D_auto_restart ->
    emit t (Event.Task_auto_restarted { path = pkey path });
    advance t inst ~path ~task Policy.after_failure
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

(* The one owner of "an instance's keys": its rows, in sorted order
   (recovery replays them, gc deletes them). Recovery slices them out of
   one sorted read of the whole store; a single instance reads only its
   own. *)
let instance_keys keys iid = Dispatch.key_slice keys ~prefix:(Wstate.task_prefix iid)

let own_keys t iid = Dispatch.committed_keys_with_prefix t.disp ~prefix:(Wstate.task_prefix iid)

(* [keys] is the instance's slice of the committed keys, in sorted
   order (see {!instance_keys}). *)
let rebuild_instance t ~keys iid =
  let read key = Dispatch.committed_value t.disp ~key in
  let meta_key = Wstate.key iid Wstate.Meta in
  match read meta_key with
  | None -> ()
  | Some meta_raw -> (
    let meta = Wstate.decode_value Wstate.Meta meta_raw in
    let script_text =
      match read (Wstate.key iid Wstate.Reconf) with Some s -> s | None -> meta.Wstate.m_script
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
      (* [create] applied the meta row, decoded once above: it holds the
         whole script text *)
      Instate.load_committed inst ~read ~keys:(List.filter (fun k -> k <> meta_key) keys);
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
            | Sched.E_fn _ ->
              dispatch_after t inst ~path ~task ~set ~inputs:(chosen_inputs inst path) ~attempt
                (max 0 (fire_at - Sim.now t.sim))
            | Sched.E_compound _ | Sched.E_missing _ -> ())
          | _ -> ())
        (Instate.pending_backoffs inst);
      (* as at conclusion, a concluded instance keeps no pump-only state
         (the lookups above built its index) *)
      if inst.Instate.status = Wstate.Wf_running then mark_dirty t inst
      else Instate.trim_concluded inst)

(* Launch again an instance whose launch write set a crash lost. It
   keeps its iid and takes a fresh directory sequence number; its
   scheduling restarts once the new launch rows commit. *)
let relaunch_orphan t (orphan : Instate.t) =
  let inst = Instate.reset orphan in
  let meta = Instate.meta inst ~status:Wstate.Wf_running in
  t.inst_rev <- inst.Instate.iid :: t.inst_rev;
  Hashtbl.replace t.insts inst.Instate.iid inst;
  emit t (Event.Wf_relaunched { iid = inst.Instate.iid });
  t.seq <- t.seq + 1;
  persist_rows t inst
    [ Wstate.Put (Wstate.Dir, t.seq); Wstate.Put (Wstate.Meta, meta) ]
    (fun () -> mark_dirty t inst)

let recover t () =
  Hashtbl.reset t.insts;
  (* one sorted key read serves the whole replay: the directory rows and
     each instance's rows are contiguous slices of it *)
  let keys = Dispatch.committed_key_array t.disp in
  (* per-instance directory rows carry the launch sequence number so the
     replay order matches the original launch order *)
  let iids =
    Dispatch.key_slice keys ~prefix:Wstate.dir_prefix
    |> List.filter_map (fun key ->
           match (Wstate.dir_iid key, Dispatch.committed_value t.disp ~key) with
           | Some iid, Some raw -> Some (Wstate.decode_value Wstate.Dir raw, iid)
           | _ -> None)
    |> List.sort compare |> List.map snd
  in
  t.inst_rev <- List.rev iids;
  List.iter (fun iid -> rebuild_instance t iid ~keys:(instance_keys keys iid)) iids;
  emit t (Event.Recovery_replayed { instances = List.length t.inst_rev });
  (* Every engine write set commits on the local lane (see
     {!Dispatch.persist}), so no launch can still be deciding now: an
     orphan whose meta row is not in the store was lost, and is launched
     again at this instant. *)
  List.iter
    (fun (o : Instate.t) ->
      if Dispatch.committed_value t.disp ~key:(Wstate.key o.Instate.iid Wstate.Meta) = None then
        relaunch_orphan t o)
    t.orphans;
  t.orphans <- []

(* --- construction and public API --- *)

let attach_host t node =
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
      sim;
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
      inst_rev = [];
      compiled = Hashtbl.create 8;
      seq = 0;
      orphans = [];
    }
  in
  Node.serve node ~service:(Wfmsg.service_done ~engine:own) (handle_report t ~is_mark:false);
  Node.serve node ~service:(Wfmsg.service_mark ~engine:own) (handle_report t ~is_mark:true);
  Node.on_crash node (fun () ->
      (* the incarnation fence already makes them no-ops; cancelling
         frees the old mirrors now rather than at each timer's deadline *)
      Hashtbl.iter (fun _ inst -> Instate.cancel_timers inst sim) t.insts;
      let running =
        Hashtbl.fold
          (fun _ (inst : Instate.t) acc ->
            if inst.Instate.status = Wstate.Wf_running then inst :: acc else acc)
          t.insts []
      in
      (* recovery empties the list, and a crash follows a recovery *)
      t.orphans <- running);
  Node.on_recover node (recover t);
  ignore (attach_host t node);
  t

(* An instance owns every store key under [wf:<iid>:] (gc deletes them,
   recovery slices them out), so an id must not make that prefix cover
   keys it does not own: a ':' would nest it over another instance's
   rows ([wf:a:] covers [wf:a:t:x:meta]), and ["dir"] over the
   directory rows ([wf:dir:]). *)
let reserved_iid i = String.contains i ':' || String.equal i "dir"

(* A crashed engine refuses client operations before they write
   anything; the client retries once the engine has recovered. *)
let down_error t = Error ("engine " ^ Node.id t.node ^ " is down")

let launch ?iid t ~script ~root ~inputs =
  if not (Node.up t.node) then down_error t
  else
    match compile_cached t ~script ~root with
    | Error e -> Error (Frontend.error_to_string e)
    | Ok _ when (match iid with Some i -> Hashtbl.mem t.insts i | None -> false) ->
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
      let meta = Instate.meta inst ~status:Wstate.Wf_running in
      (* visible immediately: callers can attach on_complete before the
         launch transaction commits; scheduling starts once durable *)
      t.inst_rev <- iid :: t.inst_rev;
      Hashtbl.replace t.insts iid inst;
      emit t (Event.Wf_launched { iid; root });
      persist_rows t inst
        [
          Wstate.Put (Wstate.Dir, t.seq);
          Wstate.Put (Wstate.Meta, meta);
          Instate.history_row inst ~now:(Sim.now t.sim) ~kind:"launch" ~detail:("root=" ^ root);
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

let mirror t iid = Hashtbl.find_opt t.insts iid

let queued_watchdogs t iid =
  match Hashtbl.find_opt t.insts iid with None -> [] | Some inst -> Instate.queued_watchdogs inst

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
  | _ when not (Node.up t.node) -> k (down_error t)
  | None -> k (Error ("no such instance " ^ iid))
  | Some inst when inst.Instate.status <> Wstate.Wf_running ->
    k (Error ("instance " ^ iid ^ " already finished"))
  | Some inst ->
    conclude t inst
      (Wstate.Wf_failed ("cancelled: " ^ reason))
      (Event.Wf_cancelled { iid; reason })
      (fun () -> k (Ok ()))

let abort_task t iid ~path k =
  match Hashtbl.find_opt t.insts iid with
  | _ when not (Node.up t.node) -> k (down_error t)
  | None -> k (Error ("no such instance " ^ iid))
  | Some inst -> (
    (* the state first: a finished task needs no lookup, which would
       rebuild a concluded instance's index *)
    match Instate.get_state inst path with
    | Some (Wstate.Done _ | Wstate.Failed _) -> k (Error (pkey path ^ " already finished"))
    | None | Some (Wstate.Waiting _ | Wstate.Running _) -> (
      match find_task_node t inst path with
      | Some task ->
        emit t (Event.User_aborted { path = pkey path });
        fail_policy t inst ~path ~task ~reason:"aborted by user";
        k (Ok ())
      | None -> k (Error ("no task at path " ^ pkey path))))

let compact t = Dispatch.compact t.disp

let gc t iid k =
  match Hashtbl.find_opt t.insts iid with
  | _ when not (Node.up t.node) -> k (down_error t)
  | None -> k (Error ("no such instance " ^ iid))
  | Some inst when inst.Instate.status = Wstate.Wf_running ->
    k (Error ("instance " ^ iid ^ " is still running"))
  | Some _ ->
    let doomed = own_keys t iid in
    let writes =
      Wstate.encode iid (Wstate.Delete Wstate.Dir) :: List.map (fun key -> (key, None)) doomed
    in
    persist t writes (fun () ->
        t.inst_rev <- List.filter (fun i -> i <> iid) t.inst_rev;
        Hashtbl.remove t.insts iid;
        emit t (Event.Wf_collected { iid });
        k (Ok ()))

let reconfigure t iid ~transform k =
  match Hashtbl.find_opt t.insts iid with
  | _ when not (Node.up t.node) -> k (down_error t)
  | None -> k (Error ("no such instance " ^ iid))
  | Some inst -> (
    match
      Reconfig.rewrite ~script:inst.Instate.script_text
        ~root:inst.Instate.schema.Schema.name ~transform
    with
    | Error msg -> k (Error msg)
    | Ok (text, schema) ->
      persist_rows t inst
        [ Wstate.Put (Wstate.Reconf, text) ]
        (fun () ->
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
let policy_retries_total t = Metrics.value t.metrics "engine.policy_retries"
let reconfigs_total t = Metrics.value t.metrics "engine.reconfigs"
let recoveries_total t = Metrics.value t.metrics "engine.recoveries"

(* Residency accounting for the capacity bench: reachable words from
   the live mirror table, sampled on demand (walking 100k instances is
   too expensive to do implicitly). The walk covers a copy of the table
   whose mirrors have empty timer tables: a queued timer's closure leads
   on to the whole engine, and the timers belong to the simulator queue,
   which the walk has never counted. *)
let observe_residency t =
  let mirrors =
    if Hashtbl.fold (fun _ inst any -> any || Instate.has_timers inst) t.insts false then begin
      let copy = Hashtbl.copy t.insts in
      Hashtbl.filter_map_inplace (fun _ inst -> Some (Instate.without_timers inst)) copy;
      copy
    end
    else t.insts
  in
  Obj.reachable_words (Obj.repr mirrors)
