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
  marks : (string, (string * (string * Value.obj) list) list) Hashtbl.t;
  repeats : (string, string * (string * Value.obj) list) Hashtbl.t;
  timers : (string, unit) Hashtbl.t;  (* fired; key = "path|set" *)
  timer_arms : (string, Sim.time) Hashtbl.t;  (* persisted deadlines; key = "path|set" *)
  timers_armed : (string, int) Hashtbl.t;  (* volatile; value = attempt armed for *)
  backoffs : (string, int * Sim.time) Hashtbl.t;  (* pending policy backoffs: attempt, fire_at *)
  compensated : (string, unit) Hashtbl.t;  (* aborts whose compensation is recorded *)
  alarms : (string, alarm list) Hashtbl.t;  (* volatile; queued timers, by path *)
  mutable callbacks : (Wstate.status -> unit) list;
  mutable hseq : int;  (* next persistent-history index *)
  mutable dirty : bool;
  mutable inflight : bool;
  mutable concluding : bool;
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
    dirty = false;
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

let timer_fired inst path ~set = Hashtbl.mem inst.timers (pkey path ^ "|" ^ set)

let get_backoff inst path = Hashtbl.find_opt inst.backoffs (pkey path)

let set_backoff inst path ~attempt ~fire_at =
  Hashtbl.replace inst.backoffs (pkey path) (attempt, fire_at)

let is_compensated inst path = Hashtbl.mem inst.compensated (pkey path)

let mark_compensated inst path = Hashtbl.replace inst.compensated (pkey path) ()

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
   path under it. *)
let cancel_timers_at ?(below = false) inst sim path =
  let p = pkey path in
  cancel_key inst sim p;
  if below && Hashtbl.length inst.alarms > 0 then begin
    let prefix = p ^ "/" in
    let doomed =
      Hashtbl.fold
        (fun key _ acc -> if String.starts_with ~prefix key then key :: acc else acc)
        inst.alarms []
    in
    List.iter (cancel_key inst sim) doomed
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

(* --- subtree erasure (compound repeat) --- *)

(* store keys of every record strictly below [path], plus [path]'s own
   chosen and timer records (cleared when a compound repeats) *)
let subtree_keys inst path =
  let iid = inst.iid in
  let p = pkey path in
  let descendant other =
    String.length other > String.length p && String.sub other 0 (String.length p + 1) = p ^ "/"
  in
  let collect tbl mk acc =
    Hashtbl.fold (fun key _ acc -> if descendant key then mk key :: acc else acc) tbl acc
  in
  let split k = String.split_on_char '/' k in
  let acc = collect inst.states (fun k -> Wstate.key_task iid (split k)) [] in
  let acc = collect inst.chosen (fun k -> Wstate.key_chosen iid (split k)) acc in
  let acc = collect inst.marks (fun k -> Wstate.key_marks iid (split k)) acc in
  let acc = collect inst.repeats (fun k -> Wstate.key_repeat iid (split k)) acc in
  let collect_self tbl mk acc =
    Hashtbl.fold
      (fun key _ acc -> if descendant key || key = p then mk key :: acc else acc)
      tbl acc
  in
  let acc = collect_self inst.backoffs (fun k -> Wstate.key_backoff iid (split k)) acc in
  let acc = collect_self inst.compensated (fun k -> Wstate.key_comp iid (split k)) acc in
  let acc =
    Hashtbl.fold
      (fun key () acc ->
        match String.rindex_opt key '|' with
        | Some i ->
          let kpath = String.sub key 0 i in
          let set = String.sub key (i + 1) (String.length key - i - 1) in
          if descendant kpath || kpath = p then Wstate.key_timer iid (split kpath) ~set :: acc
          else acc
        | None -> acc)
      inst.timers acc
  in
  Hashtbl.fold
    (fun key _ acc ->
      match String.rindex_opt key '|' with
      | Some i ->
        let kpath = String.sub key 0 i in
        let set = String.sub key (i + 1) (String.length key - i - 1) in
        if descendant kpath || kpath = p then Wstate.key_timer_arm iid (split kpath) ~set :: acc
        else acc
      | None -> acc)
    inst.timer_arms acc

let wipe_subtree_mirror inst path =
  let p = pkey path in
  let descendant other =
    String.length other > String.length p && String.sub other 0 (String.length p + 1) = p ^ "/"
  in
  let purge tbl pred =
    let doomed = Hashtbl.fold (fun k _ acc -> if pred k then k :: acc else acc) tbl [] in
    List.iter (Hashtbl.remove tbl) doomed
  in
  purge inst.states descendant;
  purge inst.chosen (fun k -> descendant k || k = p);
  purge inst.marks descendant;
  purge inst.repeats descendant;
  purge inst.backoffs (fun k -> descendant k || k = p);
  purge inst.compensated (fun k -> descendant k || k = p);
  let timer_pred key =
    match String.rindex_opt key '|' with
    | Some i ->
      let kpath = String.sub key 0 i in
      descendant kpath || kpath = p
    | None -> false
  in
  purge inst.timers timer_pred;
  purge inst.timer_arms timer_pred;
  purge inst.timers_armed timer_pred

(* --- action -> transactional writes and history rows --- *)

(* every effectful action also appends one persistent history row in
   the same transaction — the durable audit log behind Fig 4's
   monitoring tools (volatile traces die with the process) *)
let history_write inst ~now ~kind ~detail =
  let n = inst.hseq in
  inst.hseq <- n + 1;
  (Wstate.key_history inst.iid n, Some (Wstate.encode_history (now, kind, detail)))

let action_history inst ~now = function
  | Sched.Arm_timer _ -> []
  | Sched.Start { a_path; a_attempt; _ } ->
    let detail = String.concat "" [ pkey a_path; " (attempt "; string_of_int a_attempt; ")" ] in
    [ history_write inst ~now ~kind:"start" ~detail ]
  | Sched.Fire_mark { a_path; a_name; _ } ->
    [ history_write inst ~now ~kind:"mark" ~detail:(pkey a_path ^ " " ^ a_name) ]
  | Sched.Do_repeat { a_path; a_name; _ } ->
    [ history_write inst ~now ~kind:"repeat" ~detail:(pkey a_path ^ " " ^ a_name) ]
  | Sched.Complete { a_path; a_name; _ } ->
    [ history_write inst ~now ~kind:"complete" ~detail:(pkey a_path ^ " -> " ^ a_name) ]
  | Sched.Fail_task { a_path; a_reason } ->
    [ history_write inst ~now ~kind:"task-failed" ~detail:(pkey a_path ^ ": " ^ a_reason) ]

let action_writes inst ~now ~deadline_of action =
  let iid = inst.iid in
  match action with
  | Sched.Arm_timer _ -> []
  | Sched.Start { a_path; a_task; a_set; a_inputs; a_attempt } ->
    let running =
      Wstate.Running
        { attempt = a_attempt; set = a_set; started = now; deadline = now + deadline_of a_task }
    in
    [
      (Wstate.key_task iid a_path, Some (Wstate.encode_task_state running));
      ( Wstate.key_chosen iid a_path,
        Some (Wstate.encode_chosen { Wstate.c_set = a_set; c_inputs = a_inputs }) );
    ]
  | Sched.Fire_mark { a_path; a_name; a_objects } ->
    let marks = get_marks inst a_path @ [ (a_name, a_objects) ] in
    [ (Wstate.key_marks iid a_path, Some (Wstate.encode_marks marks)) ]
  | Sched.Do_repeat { a_path; a_name; a_objects; a_attempt } ->
    [
      (Wstate.key_repeat iid a_path, Some (Wstate.encode_repeat (a_name, a_objects)));
      ( Wstate.key_task iid a_path,
        Some (Wstate.encode_task_state (Wstate.Waiting { attempt = a_attempt })) );
      (Wstate.key_chosen iid a_path, None);
    ]
    @ List.map (fun key -> (key, None)) (subtree_keys inst a_path)
  | Sched.Complete { a_path; a_name; a_kind; a_objects; a_attempt } ->
    let state =
      Wstate.Done { attempt = a_attempt; output = a_name; kind = a_kind; objects = a_objects }
    in
    [ (Wstate.key_task iid a_path, Some (Wstate.encode_task_state state)) ]
  | Sched.Fail_task { a_path; a_reason } ->
    [ (Wstate.key_task iid a_path, Some (Wstate.encode_task_state (Wstate.Failed a_reason))) ]

(* Mirror update only; the engine announces the corresponding events. *)
let apply_action_mirror inst ~now ~deadline_of action =
  match action with
  | Sched.Arm_timer _ -> ()
  | Sched.Start { a_path; a_task; a_set; a_inputs; a_attempt } ->
    Hashtbl.replace inst.states (pkey a_path)
      (Wstate.Running
         { attempt = a_attempt; set = a_set; started = now; deadline = now + deadline_of a_task });
    Hashtbl.replace inst.chosen (pkey a_path) { Wstate.c_set = a_set; c_inputs = a_inputs }
  | Sched.Fire_mark { a_path; a_name; a_objects } ->
    Hashtbl.replace inst.marks (pkey a_path) (get_marks inst a_path @ [ (a_name, a_objects) ])
  | Sched.Do_repeat { a_path; a_name; a_objects; a_attempt } ->
    Hashtbl.replace inst.repeats (pkey a_path) (a_name, a_objects);
    wipe_subtree_mirror inst a_path;
    Hashtbl.replace inst.states (pkey a_path) (Wstate.Waiting { attempt = a_attempt })
  | Sched.Complete { a_path; a_name; a_kind; a_objects; a_attempt } ->
    Hashtbl.replace inst.states (pkey a_path)
      (Wstate.Done { attempt = a_attempt; output = a_name; kind = a_kind; objects = a_objects })
  | Sched.Fail_task { a_path; a_reason } ->
    Hashtbl.replace inst.states (pkey a_path) (Wstate.Failed a_reason)

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

(* --- rebuilding mirrors from the committed store --- *)

(* [wf:I:<tag>:<remainder>] — fill the matching mirror table. [read]
   fetches the committed value of a full store key. *)
let load_committed inst ~read ~keys =
  let prefix = Wstate.task_prefix inst.iid in
  let load_key key =
    if String.starts_with ~prefix key then begin
      let rest = String.sub key (String.length prefix) (String.length key - String.length prefix) in
      match String.index_opt rest ':' with
      | None -> () (* meta / reconf *)
      | Some i -> (
        let tag = String.sub rest 0 i in
        let remainder = String.sub rest (i + 1) (String.length rest - i - 1) in
        let value () = Option.get (read key) in
        match tag with
        | "t" -> Hashtbl.replace inst.states remainder (Wstate.decode_task_state (value ()))
        | "c" -> Hashtbl.replace inst.chosen remainder (Wstate.decode_chosen (value ()))
        | "m" -> Hashtbl.replace inst.marks remainder (Wstate.decode_marks (value ()))
        | "r" -> Hashtbl.replace inst.repeats remainder (Wstate.decode_repeat (value ()))
        | "timer" -> (
          match String.rindex_opt remainder ':' with
          | Some j ->
            let kpath = String.sub remainder 0 j in
            let set = String.sub remainder (j + 1) (String.length remainder - j - 1) in
            Hashtbl.replace inst.timers (kpath ^ "|" ^ set) ()
          | None -> ())
        | "b" -> Hashtbl.replace inst.backoffs remainder (Wstate.decode_backoff (value ()))
        | "comp" -> Hashtbl.replace inst.compensated remainder ()
        | "h" ->
          (* history rows are read on demand; track the counter *)
          (match int_of_string_opt remainder with
          | Some n -> inst.hseq <- max inst.hseq (n + 1)
          | None -> ())
        | "timerarm" -> (
          match String.rindex_opt remainder ':' with
          | Some j -> (
            let kpath = String.sub remainder 0 j in
            let set = String.sub remainder (j + 1) (String.length remainder - j - 1) in
            match int_of_string_opt (value ()) with
            | Some deadline -> Hashtbl.replace inst.timer_arms (kpath ^ "|" ^ set) deadline
            | None -> ())
          | None -> ())
        | _ -> ())
    end
  in
  List.iter load_key keys
