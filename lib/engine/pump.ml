(* The evaluation loop: judge readiness (Sched), decide a pass's actions
   into rows the mirror applies at once (Instate), persist the rows
   (Dispatch), then announce the actions (Event) and run their effects.
   Every timer and deferred event it schedules is fenced by the node's
   incarnation ({!Node.incarnation}). *)

type config = {
  default_deadline : Sim.time;
  system_max_attempts : int;
  dispatch_overhead : Sim.time;
  retain_concluded : bool;
  trace : bool;
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
  metrics : Metrics.t;
  jitter_salt : string;
  insts : (string, Instate.t) Hashtbl.t;
  dir : (string, int) Hashtbl.t;
  mutable dir_peak : int;
  compiled : (string * string, Schema.task) Hashtbl.t;
  mutable seq : int;
}

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

(* The mirror applies an instance's rows as decided; the same rows are
   then persisted, and [k] runs once they commit. *)
let persist_rows t inst rows k =
  List.iter (Instate.apply inst) rows;
  persist t (encode_rows inst rows) k

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

(* --- deciding and announcing scheduler actions --- *)

(* An action decided, with what its announcement reads from the mirror
   as it was before the action, and its rows' store writes. *)
type decision = {
  action : Sched.action;
  duration : Sim.time;  (* a completion's, from its start *)
  compensation : (Wstate.path * string * Wstate.path * Schema.task * string) option;
  writes : (string * string option) list;
}

(* Build an action's rows and apply them to the mirror. The
   compensation's rows follow the action's, but are built first, so its
   history row takes the lower index. *)
let decide t inst action =
  let now = Sim.now t.sim in
  let duration =
    match action with
    | Sched.Complete { a_path; _ } -> (
      match Instate.get_state inst a_path with
      | Some (Wstate.Running { started; _ }) -> now - started
      | _ -> 0)
    | _ -> 0
  in
  let compensation = compensation_of t inst action in
  let compensation_rows =
    match compensation with
    | None -> []
    | Some (a_path, target, _, _, _) ->
      [
        Wstate.Put (Wstate.Compensated (pkey a_path), ());
        Instate.history_row inst ~now ~kind:"policy-compensate"
          ~detail:(pkey a_path ^ " -> " ^ target);
      ]
  in
  let rows = Instate.action_rows inst ~now ~deadline_of:(deadline_span t) action in
  let rows = match compensation_rows with [] -> rows | _ -> rows @ compensation_rows in
  List.iter (Instate.apply inst) rows;
  { action; duration; compensation; writes = encode_rows inst rows }

(* Once the rows have committed: a started task waits no more and a
   finished or repeating one runs no more, so their queued timers go;
   then the compensation fires and the action is announced. *)
let announce t inst { action; duration; compensation; _ } =
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
    Sim.settle t.sim (fun () ->
        if Node.incarnation t.node = inc then pump t inst else inst.Instate.inflight <- false)
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
      (* each action is decided on the mirror its predecessors left *)
      let decisions = List.map (decide t inst) effectful in
      persist t (List.concat_map (fun d -> d.writes) decisions) (fun () ->
          List.iter (announce t inst) decisions;
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
  let d = decide t inst action in
  persist t d.writes (fun () ->
      announce t inst d;
      mark_dirty ~paths:[ Sched.action_path action ] t inst)

and finalize t inst =
  if inst.Instate.status = Wstate.Wf_running then begin
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
      inst.Instate.concluding <- false;
      emit t ev;
      let callbacks = inst.Instate.callbacks in
      inst.Instate.callbacks <- [];
      List.iter (fun cb -> cb status) callbacks;
      Instate.cancel_timers inst t.sim;
      if t.config.retain_concluded then Instate.trim_concluded inst else Instate.release inst;
      k ())

(* A mirror recovery rebuilt takes up where the crash left it. *)
let resume t inst =
  (* honour persisted deadlines: executions orphaned by the crash are
     re-dispatched as soon as they expire *)
  List.iter
    (fun (path, task, attempt, deadline) ->
      let remaining = max 0 (deadline - Sim.now t.sim) + Sim.ms 1 in
      schedule_watchdog ~delay:remaining t inst ~path ~task ~attempt)
    (Instate.running_leaves inst ~effective:(effective_body t));
  (* pending policy backoffs: resume the remaining wait against the
     persisted attempt counter, then redispatch that same attempt — the
     budget carries over, it is never reset *)
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
  (* as at conclusion, a concluded instance keeps no pump-only state (the
     lookups above built its index) *)
  if inst.Instate.status = Wstate.Wf_running then mark_dirty t inst
  else Instate.trim_concluded inst

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
