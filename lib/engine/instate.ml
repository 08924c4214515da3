(* A queued timer that captures the instance. *)
type alarm =
  | Watchdog of int * Sim.handle  (* the attempt it guards *)
  | Backoff of Sim.handle  (* a policy backoff's re-dispatch *)
  | Timer of string * Sim.handle  (* an input set's timeout *)

type t = {
  iid : string;
  mutable script_text : string;
  mutable schema : Schema.task;
  mutable status : Wstate.status;
  mutable external_inputs : (string * Value.obj) list;
  states : (string, Wstate.task_state) Hashtbl.t;
  chosen : (string, Wstate.chosen) Hashtbl.t;
  marks : (string, Wstate.marks) Hashtbl.t;
  repeats : (string, Wstate.repeat) Hashtbl.t;
  timers : (string * string, unit) Hashtbl.t;  (* fired; key = path, input set *)
  timer_arms : (string * string, Sim.time) Hashtbl.t;  (* persisted deadlines *)
  timers_armed : (string * string, int) Hashtbl.t;  (* volatile; value = attempt armed for *)
  backoffs : (string, int * Sim.time) Hashtbl.t;  (* pending policy backoffs: attempt, fire_at *)
  compensated : (string, unit) Hashtbl.t;  (* aborts whose compensation is recorded *)
  alarms : (string, alarm list) Hashtbl.t;  (* volatile; queued timers, by path *)
  mutable callbacks : (Wstate.status -> unit) list;
  mutable hseq : int;  (* next persistent-history index *)
  mutable inflight : bool;
  mutable concluding : bool;  (* the conclusion is decided, not yet committed *)
  mutable pending : Sched.dirty;
      (* paths whose records changed since the last evaluation pass;
         the incremental pump consumes this as the scan_from seed *)
  mutable index : Sched.index option;
      (* cached reverse-dependency index; invalidated by reconfigure *)
}

let pkey = Wstate.path_to_string

let create ~iid ~script_text ~schema ~status ~external_inputs =
  {
    iid;
    script_text;
    schema;
    status;
    external_inputs;
    states = Hashtbl.create 32;
    chosen = Hashtbl.create 32;
    marks = Hashtbl.create 8;
    repeats = Hashtbl.create 8;
    timers = Hashtbl.create 8;
    timer_arms = Hashtbl.create 8;
    timers_armed = Hashtbl.create 8;
    backoffs = Hashtbl.create 4;
    compensated = Hashtbl.create 4;
    alarms = Hashtbl.create 4;
    callbacks = [];
    hseq = 0;
    inflight = false;
    concluding = false;
    pending = Sched.All;  (* the first pass after (re)build is a full one *)
    index = None;
  }

(* Same identity and script, empty mirrors — for re-persisting a launch
   whose transaction was lost to a crash. *)
let reset orphan =
  {
    (create ~iid:orphan.iid ~script_text:orphan.script_text ~schema:orphan.schema
       ~status:Wstate.Wf_running ~external_inputs:orphan.external_inputs)
    with
    callbacks = orphan.callbacks;
    hseq = orphan.hseq;
  }

(* --- mirror accessors (no record = implicit Waiting, attempt 1) --- *)

let get_state inst path = Hashtbl.find_opt inst.states (pkey path)

let get_chosen inst path = Hashtbl.find_opt inst.chosen (pkey path)

let get_marks inst path =
  match Hashtbl.find_opt inst.marks (pkey path) with Some l -> l | None -> []

let get_repeat inst path = Hashtbl.find_opt inst.repeats (pkey path)

let timer_fired inst path ~set = Hashtbl.mem inst.timers (pkey path, set)

let is_compensated inst path = Hashtbl.mem inst.compensated (pkey path)

let task_states inst =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) inst.states []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type policy_budget = {
  pb_path : string;
  pb_attempts : int;
  pb_backoff_remaining : Sim.time;
  pb_compensated : bool;
}

let policy_budgets inst ~now =
  let budget key =
    let attempts =
      match Hashtbl.find_opt inst.states key with
      | Some (Wstate.Waiting { attempt })
      | Some (Wstate.Running { attempt; _ })
      | Some (Wstate.Done { attempt; _ }) ->
        attempt
      | Some _ | None -> 0
    in
    let backoff_remaining =
      match Hashtbl.find_opt inst.backoffs key with
      | Some (_, fire_at) -> max 0 (fire_at - now)
      | None -> 0
    in
    { pb_path = key; pb_attempts = attempts; pb_backoff_remaining = backoff_remaining;
      pb_compensated = Hashtbl.mem inst.compensated key }
  in
  (* every path the policy machinery has touched: task states (attempt
     counters), pending backoffs, recorded compensations *)
  let keys tbl = List.of_seq (Hashtbl.to_seq_keys tbl) in
  List.sort_uniq String.compare (keys inst.states @ keys inst.backoffs @ keys inst.compensated)
  |> List.map budget

(* --- applying rows: the only writer of the mirror tables --- *)

let put : type a. t -> a Wstate.field -> a -> unit =
 fun inst field value ->
  match field with
  | Wstate.Task path -> Hashtbl.replace inst.states path value
  | Wstate.Chosen path -> Hashtbl.replace inst.chosen path value
  | Wstate.Marks path -> Hashtbl.replace inst.marks path value
  | Wstate.Repeat path -> Hashtbl.replace inst.repeats path value
  | Wstate.Timer_fired (path, set) -> Hashtbl.replace inst.timers (path, set) value
  | Wstate.Timer_armed (path, set) -> Hashtbl.replace inst.timer_arms (path, set) value
  | Wstate.Backoff path -> Hashtbl.replace inst.backoffs path value
  | Wstate.Compensated path -> Hashtbl.replace inst.compensated path value
  | Wstate.Meta -> inst.status <- value.Wstate.m_status
  | Wstate.Reconf -> inst.script_text <- value
  | Wstate.History _ | Wstate.Dir -> ()

let delete : type a. t -> a Wstate.field -> unit =
 fun inst -> function
  | Wstate.Task path -> Hashtbl.remove inst.states path
  | Wstate.Chosen path -> Hashtbl.remove inst.chosen path
  | Wstate.Marks path -> Hashtbl.remove inst.marks path
  | Wstate.Repeat path -> Hashtbl.remove inst.repeats path
  | Wstate.Timer_fired (path, set) -> Hashtbl.remove inst.timers (path, set)
  | Wstate.Timer_armed (path, set) -> Hashtbl.remove inst.timer_arms (path, set)
  | Wstate.Backoff path -> Hashtbl.remove inst.backoffs path
  | Wstate.Compensated path -> Hashtbl.remove inst.compensated path
  | Wstate.Meta | Wstate.Reconf | Wstate.History _ | Wstate.Dir -> ()

let apply inst = function
  | Wstate.Put (field, value) -> put inst field value
  | Wstate.Delete field -> delete inst field

(* [history_row] consumes [hseq] when it builds a row; recovery takes it
   from the history keys, never reading the rows themselves. *)
let load_committed inst ~read ~keys =
  let decode = Wstate.decode inst.iid ~read in
  let history_index = Wstate.history_index inst.iid in
  List.iter
    (fun key ->
      match history_index key with
      | Some n -> inst.hseq <- max inst.hseq (n + 1)
      | None -> ( match decode key with Some row -> apply inst row | None -> ()))
    keys

(* --- queued timers (volatile) --- *)

(* A timer that captures the instance dies with the work it guards, so
   a finished attempt or instance leaves nothing in the simulator queue. *)

let alarm_handle = function Watchdog (_, h) | Backoff h | Timer (_, h) -> h

let cancel_alarm sim a = Sim.cancel sim (alarm_handle a)

let same_kind a b =
  match (a, b) with
  | Watchdog _, Watchdog _ | Backoff _, Backoff _ -> true
  | Timer (s, _), Timer (s', _) -> String.equal s s'
  | (Watchdog _ | Backoff _ | Timer _), _ -> false

(* [alarm] becomes the one alarm of its kind filed under the path [key];
   the one it replaces is cancelled. *)
let add_alarm inst sim key alarm =
  match Hashtbl.find inst.alarms key with
  | exception Not_found -> Hashtbl.replace inst.alarms key [ alarm ]
  | alarms ->
    let others =
      List.filter
        (fun a ->
          if same_kind a alarm then begin
            cancel_alarm sim a;
            false
          end
          else true)
        alarms
    in
    Hashtbl.replace inst.alarms key (alarm :: others)

let set_alarm inst sim path alarm = add_alarm inst sim (pkey path) alarm

(* A new attempt's watchdog replaces the old one. A watchdog still
   queued for the same attempt is kept: after recovery it guards that
   attempt's persisted deadline, which the resumed backoff's dispatch
   can only push later. *)
let set_watchdog inst sim path ~attempt schedule =
  let queued = function
    | Watchdog (a, h) -> a = attempt && Sim.is_live h
    | Backoff _ | Timer _ -> false
  in
  let key = pkey path in
  match Hashtbl.find inst.alarms key with
  | alarms when List.exists queued alarms -> ()
  | _ | (exception Not_found) -> add_alarm inst sim key (Watchdog (attempt, schedule ()))

let cancel_key inst sim key =
  match Hashtbl.find inst.alarms key with
  | exception Not_found -> ()
  | alarms ->
    List.iter (cancel_alarm sim) alarms;
    Hashtbl.remove inst.alarms key

(* Cancel the queued timers of [path] and, with [~below], those of every
   path under it, whose armed-timer bookkeeping goes too: a subtree that
   repeats arms its timers afresh. *)
let cancel_timers_at ?(below = false) inst sim path =
  let p = pkey path in
  cancel_key inst sim p;
  if below then begin
    let prefix = p ^ "/" in
    let doomed =
      Hashtbl.fold
        (fun key _ acc -> if String.starts_with ~prefix key then key :: acc else acc)
        inst.alarms []
    in
    List.iter (cancel_key inst sim) doomed;
    let unarmed =
      Hashtbl.fold
        (fun ((kpath, _) as key) _ acc ->
          if kpath = p || String.starts_with ~prefix kpath then key :: acc else acc)
        inst.timers_armed []
    in
    List.iter (Hashtbl.remove inst.timers_armed) unarmed
  end

let cancel_timers inst sim =
  Hashtbl.iter (fun _ alarms -> List.iter (cancel_alarm sim) alarms) inst.alarms;
  Hashtbl.reset inst.alarms

let queued_watchdogs inst =
  Hashtbl.fold
    (fun key alarms acc ->
      List.fold_left
        (fun acc -> function
          | Watchdog (attempt, h) when Sim.is_live h -> (key, attempt) :: acc
          | Watchdog _ | Backoff _ | Timer _ -> acc)
        acc alarms)
    inst.alarms []
  |> List.sort compare

let has_timers inst = Hashtbl.length inst.alarms > 0

let without_timers inst = if has_timers inst then { inst with alarms = Hashtbl.create 4 } else inst

(* pending policy backoffs, for recovery to resume *)
let pending_backoffs inst =
  Hashtbl.fold
    (fun key (attempt, fire_at) acc ->
      (String.split_on_char '/' key, attempt, fire_at) :: acc)
    inst.backoffs []

let view inst ~effective =
  {
    Sched.v_effective = effective;
    v_state = get_state inst;
    v_chosen = get_chosen inst;
    v_marks = get_marks inst;
    v_repeat = get_repeat inst;
    v_timer_fired = (fun path ~set -> timer_fired inst path ~set);
    v_external = (fun name -> List.assoc_opt name inst.external_inputs);
    v_running = inst.status = Wstate.Wf_running;
  }

let meta inst ~status =
  {
    Wstate.m_script = inst.script_text;
    m_root = inst.schema.Schema.name;
    m_inputs = inst.external_inputs;
    m_status = status;
  }

let index inst ~effective =
  match inst.index with
  | Some idx -> idx
  | None ->
    let idx = Sched.build_index ~effective inst.schema in
    inst.index <- Some idx;
    idx

let find_node inst ~effective path = Sched.find_task (index inst ~effective) path

(* Running leaf executions (tasks bound to an implementation function),
   with their persisted attempt and watchdog deadline. Recovery re-arms
   one watchdog per entry; a running instance with none and an
   unfinished root is quiescent (stuck). *)
let running_leaves inst ~effective =
  Hashtbl.fold
    (fun key state acc ->
      match state with
      | Wstate.Running { attempt; deadline; _ } -> (
        let path = String.split_on_char '/' key in
        match find_node inst ~effective path with
        | Some task -> (
          match effective task with
          | Sched.E_fn _ -> (path, task, attempt, deadline) :: acc
          | Sched.E_compound _ | Sched.E_missing _ -> acc)
        | None -> acc)
      | Wstate.Waiting _ | Wstate.Done _ | Wstate.Failed _ -> acc)
    inst.states []

(* --- action -> rows --- *)

(* Deletions of every record strictly below [path], plus [path]'s own
   backoff, compensation and timer records (a compound repeat wipes its
   scope). *)
let subtree_rows inst path =
  let p = pkey path in
  let prefix = p ^ "/" in
  let below key = String.starts_with ~prefix key in
  let here_or_below key = key = p || below key in
  let in_scope : type a. a Wstate.field -> bool = function
    | Wstate.Task k | Wstate.Chosen k | Wstate.Marks k | Wstate.Repeat k -> below k
    | Wstate.Backoff k | Wstate.Compensated k -> here_or_below k
    | Wstate.Timer_fired (k, _) | Wstate.Timer_armed (k, _) -> here_or_below k
    | Wstate.Meta | Wstate.Reconf | Wstate.History _ | Wstate.Dir -> false
  in
  let collect tbl field acc =
    Hashtbl.fold
      (fun key _ acc ->
        let f = field key in
        if in_scope f then Wstate.Delete f :: acc else acc)
      tbl acc
  in
  collect inst.states (fun k -> Wstate.Task k) []
  |> collect inst.chosen (fun k -> Wstate.Chosen k)
  |> collect inst.marks (fun k -> Wstate.Marks k)
  |> collect inst.repeats (fun k -> Wstate.Repeat k)
  |> collect inst.backoffs (fun k -> Wstate.Backoff k)
  |> collect inst.compensated (fun k -> Wstate.Compensated k)
  |> collect inst.timers (fun (path, set) -> Wstate.Timer_fired (path, set))
  |> collect inst.timer_arms (fun (path, set) -> Wstate.Timer_armed (path, set))

(* every effectful action also appends one persistent history row in
   the same transaction — the durable audit log behind Fig 4's
   monitoring tools (volatile traces die with the process) *)
let history_row inst ~now ~kind ~detail =
  let n = inst.hseq in
  inst.hseq <- n + 1;
  Wstate.Put (Wstate.History n, Wstate.encode_history (now, kind, detail))

let history inst ~now kind detail = [ history_row inst ~now ~kind ~detail ]

let action_rows inst ~now ~deadline_of action =
  match action with
  | Sched.Arm_timer _ -> []
  | Sched.Start { a_path; a_task; a_set; a_inputs; a_attempt } ->
    let p = pkey a_path in
    let running =
      Wstate.Running
        { attempt = a_attempt; set = a_set; started = now; deadline = now + deadline_of a_task }
    in
    Wstate.Put (Wstate.Task p, running)
    :: Wstate.Put (Wstate.Chosen p, { Wstate.c_set = a_set; c_inputs = a_inputs })
    :: history inst ~now "start"
         (String.concat "" [ p; " (attempt "; string_of_int a_attempt; ")" ])
  | Sched.Fire_mark { a_path; a_name; a_objects } ->
    let p = pkey a_path in
    Wstate.Put (Wstate.Marks p, get_marks inst a_path @ [ (a_name, a_objects) ])
    :: history inst ~now "mark" (p ^ " " ^ a_name)
  | Sched.Do_repeat { a_path; a_name; a_objects; a_attempt } ->
    let p = pkey a_path in
    Wstate.Put (Wstate.Repeat p, (a_name, a_objects))
    :: Wstate.Put (Wstate.Task p, Wstate.Waiting { attempt = a_attempt })
    :: Wstate.Delete (Wstate.Chosen p)
    :: (subtree_rows inst a_path @ history inst ~now "repeat" (p ^ " " ^ a_name))
  | Sched.Complete { a_path; a_name; a_kind; a_objects; a_attempt } ->
    let p = pkey a_path in
    Wstate.Put
      ( Wstate.Task p,
        Wstate.Done { attempt = a_attempt; output = a_name; kind = a_kind; objects = a_objects } )
    :: history inst ~now "complete" (p ^ " -> " ^ a_name)
  | Sched.Fail_task { a_path; a_reason } ->
    let p = pkey a_path in
    Wstate.Put (Wstate.Task p, Wstate.Failed a_reason)
    :: history inst ~now "task-failed" (p ^ ": " ^ a_reason)

(* --- bounding memory after conclusion --- *)

(* Always safe once an instance has concluded: fired-timer records,
   armed-timer bookkeeping, the scan index and the pending set serve
   only a running evaluation pump. Separate from [release] because the
   mirror tables still back the introspection API. *)
let trim_concluded inst =
  Hashtbl.reset inst.timers;
  Hashtbl.reset inst.timer_arms;
  Hashtbl.reset inst.timers_armed;
  Hashtbl.reset inst.backoffs;
  Hashtbl.reset inst.compensated;
  inst.index <- None;
  inst.pending <- Sched.no_dirty

(* Eager full drop (engine config [retain_concluded = false]): the
   mirror tables go too, so a concluded instance costs O(1) resident
   words. Introspection (task_state / task_states / marks_of) then
   answers empty for the instance; the committed store keeps the durable
   records and history untouched. *)
let release inst =
  trim_concluded inst;
  Hashtbl.reset inst.states;
  Hashtbl.reset inst.chosen;
  Hashtbl.reset inst.marks;
  Hashtbl.reset inst.repeats;
  inst.external_inputs <- []
