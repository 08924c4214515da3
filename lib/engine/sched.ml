(* The pure scheduling core. No Sim, Rpc or Txn anywhere in here: state
   comes in through a [view] of Wstate snapshots, decisions go out as
   [action]s / [decision]s for the effect layer to persist and execute.
   Times are plain ints (virtual microseconds). *)

(* --- what a task name resolves to (registry resolution is injected) --- *)

type effective =
  | E_fn of string
  | E_compound of { children : Schema.task list; bindings : Schema.binding list; alias : string }
  | E_missing of string

(* --- read-only view of one instance's state --- *)

type view = {
  v_effective : Schema.task -> effective;
  v_state : Wstate.path -> Wstate.task_state option;
  v_chosen : Wstate.path -> Wstate.chosen option;
  v_marks : Wstate.path -> (string * (string * Value.obj) list) list;
  v_repeat : Wstate.path -> (string * (string * Value.obj) list) option;
  v_timer_fired : Wstate.path -> set:string -> bool;
  v_external : string -> Value.obj option;
  v_running : bool;  (* instance status is Wf_running *)
}

(* no record = implicit Waiting, attempt 1 *)

let waiting_attempt v path =
  match v.v_state path with
  | None -> Some 1
  | Some (Wstate.Waiting { attempt }) -> Some attempt
  | Some (Wstate.Running _ | Wstate.Done _ | Wstate.Failed _) -> None

let running_attempt v path =
  match v.v_state path with Some (Wstate.Running { attempt; _ }) -> attempt | _ -> 1

(* all but the last path segment, in a single pass *)
let rec parent_path = function [] | [ _ ] -> [] | seg :: rest -> seg :: parent_path rest

(* A task can only make progress while every enclosing compound scope
   is still open (Running) and the instance itself is running. *)
let rec scope_open v path =
  match path with
  | [] | [ _ ] -> true
  | _ -> (
    let parent = parent_path path in
    match v.v_state parent with
    | Some (Wstate.Running _) -> scope_open v parent
    | _ -> false)

let task_live v path = v.v_running && scope_open v path

(* --- schema navigation (through dynamically bound sub-workflows) --- *)

let rec find_node ~effective (task : Schema.task) = function
  | [] -> Some task
  | name :: rest -> (
    match effective task with
    | E_compound { children; _ } -> (
      match List.find_opt (fun (c : Schema.task) -> c.Schema.name = name) children with
      | Some child -> find_node ~effective child rest
      | None -> None)
    | E_fn _ | E_missing _ -> None)

(* --- candidate selection (push-based incremental scans) --- *)

(* A scan pass visits the whole tree; [sel] decides which nodes are
   actually (re-)evaluated. [sel_cand path] — this node's readiness may
   have changed since the last pass, evaluate it. [sel_desc path] — some
   strict descendant is a candidate, so descend through this Running
   scope even if the scope itself is not a candidate. The full scan uses
   the constant-true selector. *)
type sel = { sel_cand : string -> bool; sel_desc : string -> bool }

let sel_all = { sel_cand = (fun _ -> true); sel_desc = (fun _ -> true) }

(* --- availability --- *)

type ctx = {
  c_view : view;
  c_sel : sel;
  c_scope : Wstate.path;
  c_scope_key : string;  (* path_to_string c_scope, threaded to avoid re-concat *)
  c_enclosing : string option;
  c_scope_set : string option;
  c_scope_inputs : (string * Value.obj) list;
  c_siblings : Schema.task list;
}

(* [path_to_string (scope @ [name])] in one allocation; the scan pass
   computes this once per visited node, so it must not build the
   intermediate path list or concat chain. *)
let child_key parent name =
  if parent = "" then name
  else begin
    let lp = String.length parent and ln = String.length name in
    let b = Bytes.create (lp + 1 + ln) in
    Bytes.blit_string parent 0 b 0 lp;
    Bytes.set b lp '/';
    Bytes.blit_string name 0 b (lp + 1) ln;
    Bytes.unsafe_to_string b
  end

let is_sibling ctx name = List.exists (fun (s : Schema.task) -> s.Schema.name = name) ctx.c_siblings

let mark_objects ctx path oc = List.assoc_opt oc (ctx.c_view.v_marks path)

let obj_source_value ctx (os : Schema.obj_source) =
  let sibling = is_sibling ctx os.Schema.s_task in
  if (not sibling) && ctx.c_enclosing = Some os.Schema.s_task then
    match os.Schema.s_cond with
    | Schema.C_input set when ctx.c_scope_set = Some set ->
      List.assoc_opt os.Schema.s_obj ctx.c_scope_inputs
    | Schema.C_input _ | Schema.C_output _ | Schema.C_any -> None
  else if not sibling then None
  else begin
    let path = ctx.c_scope @ [ os.Schema.s_task ] in
    let v = ctx.c_view in
    match os.Schema.s_cond with
    | Schema.C_output oc -> (
      match v.v_state path with
      | Some (Wstate.Done { output; objects; _ }) when output = oc ->
        List.assoc_opt os.Schema.s_obj objects
      | _ -> (
        match mark_objects ctx path oc with
        | Some objects -> List.assoc_opt os.Schema.s_obj objects
        | None -> (
          match v.v_repeat path with
          | Some (out, objects) when out = oc -> List.assoc_opt os.Schema.s_obj objects
          | Some _ | None -> None)))
    | Schema.C_input set -> (
      match v.v_chosen path with
      | Some c when c.Wstate.c_set = set -> List.assoc_opt os.Schema.s_obj c.Wstate.c_inputs
      | Some _ | None -> None)
    | Schema.C_any -> (
      let from_marks () =
        List.find_map (fun (_, objects) -> List.assoc_opt os.Schema.s_obj objects) (v.v_marks path)
      in
      match v.v_state path with
      | Some (Wstate.Done { objects; kind; _ }) when kind <> Ast.Repeat_outcome -> (
        match List.assoc_opt os.Schema.s_obj objects with
        | Some value -> Some value
        | None -> from_marks ())
      | _ -> from_marks ())
  end

let notif_satisfied ctx (ns : Schema.notif_source) =
  let sibling = is_sibling ctx ns.Schema.n_task in
  if (not sibling) && ctx.c_enclosing = Some ns.Schema.n_task then
    match ns.Schema.n_cond with
    | Schema.C_input set -> ctx.c_scope_set = Some set
    | Schema.C_output _ -> false
    | Schema.C_any -> true
  else if not sibling then false
  else begin
    let path = ctx.c_scope @ [ ns.Schema.n_task ] in
    let v = ctx.c_view in
    match ns.Schema.n_cond with
    | Schema.C_output oc -> (
      match v.v_state path with
      | Some (Wstate.Done { output; _ }) when output = oc -> true
      | _ -> (
        mark_objects ctx path oc <> None
        || match v.v_repeat path with Some (out, _) -> out = oc | None -> false))
    | Schema.C_input set -> (
      match v.v_chosen path with Some c -> c.Wstate.c_set = set | None -> false)
    | Schema.C_any -> (
      match v.v_state path with
      | Some (Wstate.Done { kind; _ }) -> kind <> Ast.Repeat_outcome
      | _ -> false)
  end

let notif_groups_satisfied ctx groups =
  List.for_all (fun group -> List.exists (notif_satisfied ctx) group) groups

let timer_class = "Timer"

let try_input_set ctx ~path (s : Schema.input_set) =
  if not (notif_groups_satisfied ctx s.Schema.is_notifications) then `No
  else begin
    let resolve (io : Schema.input_object) =
      match io.Schema.io_sources with
      | [] ->
        if io.Schema.io_class = timer_class then
          if ctx.c_view.v_timer_fired path ~set:s.Schema.is_name then
            Some (io.Schema.io_name, Value.obj ~cls:timer_class Value.Unit)
          else None
        else if ctx.c_enclosing = None then
          Option.map (fun v -> (io.Schema.io_name, v)) (ctx.c_view.v_external io.Schema.io_name)
        else None
      | sources ->
        Option.map (fun v -> (io.Schema.io_name, v)) (List.find_map (obj_source_value ctx) sources)
    in
    let resolved = List.map resolve s.Schema.is_objects in
    if List.for_all Option.is_some resolved then `Yes (s.Schema.is_name, List.map Option.get resolved)
    else begin
      let pending_timer =
        List.exists2
          (fun (io : Schema.input_object) r ->
            r = None && io.Schema.io_sources = [] && io.Schema.io_class = timer_class)
          s.Schema.is_objects resolved
      in
      if pending_timer then `Arm_timer s.Schema.is_name else `No
    end
  end

(* --- actions --- *)

type action =
  | Start of {
      a_path : Wstate.path;
      a_task : Schema.task;
      a_set : string;
      a_inputs : (string * Value.obj) list;
      a_attempt : int;
    }
  | Fire_mark of { a_path : Wstate.path; a_name : string; a_objects : (string * Value.obj) list }
  | Do_repeat of {
      a_path : Wstate.path;
      a_name : string;
      a_objects : (string * Value.obj) list;
      a_attempt : int;
    }
  | Complete of {
      a_path : Wstate.path;
      a_name : string;
      a_kind : Ast.output_kind;
      a_objects : (string * Value.obj) list;
      a_attempt : int;
    }
  | Fail_task of { a_path : Wstate.path; a_reason : string }
  | Arm_timer of { a_path : Wstate.path; a_set : string; a_task : Schema.task; a_attempt : int }

let binding_ready ctx (b : Schema.binding) =
  if not (notif_groups_satisfied ctx b.Schema.b_notifications) then None
  else begin
    let resolve (name, sources) =
      Option.map (fun v -> (name, v)) (List.find_map (obj_source_value ctx) sources)
    in
    let resolved = List.map resolve b.Schema.b_objects in
    if List.for_all Option.is_some resolved then Some (List.map Option.get resolved) else None
  end

(* One scan pass; actions come back in declaration order. Nodes that are
   not candidates per [ctx.c_sel] are skipped — sound because a
   non-candidate's readiness cannot have changed since the previous
   pass, when it was either acted upon or found unready. *)
let rec scan_task ~ctx (task : Schema.task) acc =
  let key = child_key ctx.c_scope_key task.Schema.name in
  (* Selector check before any state lookup: a node that is neither a
     candidate nor an ancestor of one is skipped in O(1) regardless of
     its state, so wide clean scopes cost two table probes per child. *)
  if not (ctx.c_sel.sel_cand key || ctx.c_sel.sel_desc key) then acc
  else begin
    let v = ctx.c_view in
    let path = ctx.c_scope @ [ task.Schema.name ] in
    match v.v_state path with
    | Some (Wstate.Done _ | Wstate.Failed _) -> acc
    | None | Some (Wstate.Waiting _) ->
      if ctx.c_sel.sel_cand key then scan_waiting ~ctx task path acc else acc
    | Some (Wstate.Running _) -> (
      match v.v_effective task with
      | E_compound { children; bindings; alias } ->
        scan_scope ~v ~sel:ctx.c_sel ~path ~key ~children ~bindings ~alias acc
      | E_fn _ | E_missing _ -> acc)
  end

and scan_waiting ~ctx task path acc =
  match waiting_attempt ctx.c_view path with
  | None -> acc
  | Some attempt ->
    let fold acc (s : Schema.input_set) =
      match acc with
      | `Started _ -> acc
      | `Pending timers -> (
        match try_input_set ctx ~path s with
        | `Yes (set, inputs) -> `Started (set, inputs)
        | `Arm_timer set -> `Pending (set :: timers)
        | `No -> `Pending timers)
    in
    (match List.fold_left fold (`Pending []) task.Schema.inputs with
    | `Started (set, inputs) ->
      Start { a_path = path; a_task = task; a_set = set; a_inputs = inputs; a_attempt = attempt }
      :: acc
    | `Pending timers ->
      List.fold_left
        (fun acc set -> Arm_timer { a_path = path; a_set = set; a_task = task; a_attempt = attempt } :: acc)
        acc timers)

and scan_scope ~v ~sel ~path ~key ~children ~bindings ~alias acc =
  let chosen = v.v_chosen path in
  let ctx =
    {
      c_view = v;
      c_sel = sel;
      c_scope = path;
      c_scope_key = key;
      c_enclosing = Some alias;
      c_scope_set = Option.map (fun c -> c.Wstate.c_set) chosen;
      c_scope_inputs = (match chosen with Some c -> c.Wstate.c_inputs | None -> []);
      c_siblings = children;
    }
  in
  let attempt = running_attempt v path in
  (* binding evaluation only when the scope itself is a candidate: if it
     is not, no binding input changed since the last pass, so none can
     have become ready (and none was ready then, or it would have fired
     and closed the scope) *)
  let self = sel.sel_cand key in
  let ready kinds =
    if not self then None
    else
      List.find_map
        (fun (b : Schema.binding) ->
          if List.mem b.Schema.b_kind kinds then
            Option.map (fun objects -> (b, objects)) (binding_ready ctx b)
          else None)
        bindings
  in
  match ready [ Ast.Outcome; Ast.Abort_outcome ] with
  | Some (b, objects) ->
    Complete
      { a_path = path; a_name = b.Schema.b_name; a_kind = b.Schema.b_kind; a_objects = objects; a_attempt = attempt }
    :: acc
  | None -> (
    match ready [ Ast.Repeat_outcome ] with
    | Some (b, objects) ->
      Do_repeat { a_path = path; a_name = b.Schema.b_name; a_objects = objects; a_attempt = attempt + 1 }
      :: acc
    | None ->
      let acc =
        if not self then acc
        else begin
          let fired = v.v_marks path in
          List.fold_left
            (fun acc (b : Schema.binding) ->
              if b.Schema.b_kind = Ast.Mark && not (List.mem_assoc b.Schema.b_name fired) then
                match binding_ready ctx b with
                | Some objects ->
                  Fire_mark { a_path = path; a_name = b.Schema.b_name; a_objects = objects } :: acc
                | None -> acc
              else acc)
            acc bindings
        end
      in
      List.fold_left (fun acc child -> scan_task ~ctx child acc) acc children)

let scan_sel sel v ~root =
  let root_ctx =
    {
      c_view = v;
      c_sel = sel;
      c_scope = [];
      c_scope_key = "";
      c_enclosing = None;
      c_scope_set = None;
      c_scope_inputs = [];
      c_siblings = [ root ];
    }
  in
  List.rev (scan_task ~ctx:root_ctx root [])

let scan v ~root = scan_sel sel_all v ~root

(* --- the reverse-dependency index --- *)

(* Built once per instance from the (expanded) schema: for every store
   path whose records can change, the set of paths whose readiness that
   change can affect. Edges, for a compound scope P with children C and
   output bindings B:
   - P -> P/c for every child c: starting, repeating or re-choosing the
     scope re-evaluates every constituent (this also covers enclosing
     [C_input] references, which read the scope's chosen record);
   - P/s -> P/c whenever child c's input sets name sibling s as an
     object or notification source;
   - P/s -> P whenever a binding in B names sibling s.
   Dirty paths are always candidates themselves, so no self edges. *)
type index = { idx_dependents : (string, Wstate.path list) Hashtbl.t }

let build_index ~effective (root : Schema.task) =
  let tbl : (string, Wstate.path list ref) Hashtbl.t = Hashtbl.create 64 in
  let add_edge src dst =
    let key = Wstate.path_to_string src in
    match Hashtbl.find_opt tbl key with
    | Some deps -> if not (List.mem dst !deps) then deps := dst :: !deps
    | None -> Hashtbl.add tbl key (ref [ dst ])
  in
  let rec walk path (task : Schema.task) =
    match effective task with
    | E_fn _ | E_missing _ -> ()
    | E_compound { children; bindings; _ } ->
      let sibling name =
        List.exists (fun (c : Schema.task) -> c.Schema.name = name) children
      in
      let src_edge dst name = if sibling name then add_edge (path @ [ name ]) dst in
      List.iter
        (fun (c : Schema.task) ->
          let cpath = path @ [ c.Schema.name ] in
          add_edge path cpath;
          List.iter
            (fun (s : Schema.input_set) ->
              List.iter
                (fun (io : Schema.input_object) ->
                  List.iter
                    (fun (os : Schema.obj_source) -> src_edge cpath os.Schema.s_task)
                    io.Schema.io_sources)
                s.Schema.is_objects;
              List.iter
                (List.iter (fun (ns : Schema.notif_source) -> src_edge cpath ns.Schema.n_task))
                s.Schema.is_notifications)
            c.Schema.inputs;
          walk cpath c)
        children;
      List.iter
        (fun (b : Schema.binding) ->
          List.iter
            (fun ((_, sources) : string * Schema.obj_source list) ->
              List.iter (fun (os : Schema.obj_source) -> src_edge path os.Schema.s_task) sources)
            b.Schema.b_objects;
          List.iter
            (List.iter (fun (ns : Schema.notif_source) -> src_edge path ns.Schema.n_task))
            b.Schema.b_notifications)
        bindings
  in
  walk [ root.Schema.name ] root;
  let idx_dependents = Hashtbl.create (Hashtbl.length tbl) in
  Hashtbl.iter (fun key deps -> Hashtbl.add idx_dependents key !deps) tbl;
  { idx_dependents }

(* --- dirty sets --- *)

type dirty = All | Paths of Wstate.path list

let no_dirty = Paths []

let add_dirty d paths = match d with All -> All | Paths ps -> Paths (paths @ ps)

let is_clean = function Paths [] -> true | All | Paths _ -> false

let scan_from idx v ~root ~dirty =
  match dirty with
  | All -> scan v ~root
  | Paths [] -> []
  | Paths ps ->
    (* candidates: the dirty paths plus their indexed dependents; the
       walker descends into a Running scope only when the scope itself
       is a candidate or a strict ancestor of one *)
    let cand = Hashtbl.create 16 in
    List.iter
      (fun p ->
        let key = Wstate.path_to_string p in
        Hashtbl.replace cand key ();
        match Hashtbl.find_opt idx.idx_dependents key with
        | Some deps ->
          List.iter (fun d -> Hashtbl.replace cand (Wstate.path_to_string d) ()) deps
        | None -> ())
      ps;
    let within = Hashtbl.create 16 in
    Hashtbl.iter
      (fun key () ->
        String.iteri (fun i c -> if c = '/' then Hashtbl.replace within (String.sub key 0 i) ()) key)
      cand;
    let sel = { sel_cand = Hashtbl.mem cand; sel_desc = Hashtbl.mem within } in
    scan_sel sel v ~root

(* --- output shaping and implementation kv helpers --- *)

let wrap_outputs (task : Schema.task) ~output objects =
  match Schema.output_named task output with
  | None -> List.map (fun (n, v) -> (n, Value.obj ~cls:"?" v)) objects
  | Some out ->
    List.map
      (fun (name, cls) ->
        let payload = match List.assoc_opt name objects with Some v -> v | None -> Value.Unit in
        (name, Value.obj ~cls payload))
      out.Schema.out_objects

let impl_ms (task : Schema.task) ~key =
  match List.assoc_opt key task.Schema.impl with
  | Some ms -> int_of_string_opt ms
  | None -> None

(* "priority" implementation binding (paper §4.3's keyword list):
   higher-priority ready tasks are dispatched first within a pass. *)
let impl_priority (task : Schema.task) =
  match List.assoc_opt "priority" task.Schema.impl with
  | Some n -> ( match int_of_string_opt n with Some n -> n | None -> 0)
  | None -> 0

let impl_abort_retries (task : Schema.task) =
  match List.assoc_opt "retries" task.Schema.impl with
  | Some n -> ( match int_of_string_opt n with Some n -> n | None -> 0)
  | None -> 0

let action_path = function
  | Start { a_path; _ }
  | Fire_mark { a_path; _ }
  | Do_repeat { a_path; _ }
  | Complete { a_path; _ }
  | Fail_task { a_path; _ }
  | Arm_timer { a_path; _ } -> a_path

(* Dispatch higher-priority starts first (stable for equal priority);
   non-start actions keep their scan order and commit in the same
   transaction regardless. *)
let prioritise actions =
  let starts, rest = List.partition (function Start _ -> true | _ -> false) actions in
  let starts =
    List.stable_sort
      (fun a b ->
        match (a, b) with
        | Start { a_task = x; _ }, Start { a_task = y; _ } ->
          compare (impl_priority y) (impl_priority x)
        | _ -> 0)
      starts
  in
  rest @ starts

(* --- resolved recovery policy --- *)

(* The compiled Schema.policy merged with the engine's config-seeded
   defaults into one executable record. Attempt numbering is the durable
   per-path counter already persisted in [Wstate.Running]: the ranked
   implementation codes partition the attempt axis into bands of
   [rp_per_code] attempts each, so the code for any attempt — and hence
   which alternative a recovered engine must dispatch — is a pure
   function of the persisted counter. *)
type rpolicy = {
  rp_codes : string list;  (* ranked codes: primary, alternatives, substitute *)
  rp_per_code : int;  (* attempts allowed per code = 1 + retry count *)
  rp_base_total : int;  (* failure-driven ceiling: primary + alternatives *)
  rp_grand_total : int;  (* absolute ceiling, incl. the substitute band *)
  rp_backoff_ms : int;
  rp_jitter_ms : int;
  rp_backoff_max_ms : int option;
  rp_timeout_ms : int option;
  rp_on_timeout : Ast.timeout_action;
  rp_compensate : string option;
  rp_declared : bool;
}

let resolve_policy (task : Schema.task) ~primary ~default_max_attempts =
  let p = task.Schema.policy in
  if not p.Schema.p_declared then
    {
      rp_codes = [ primary ];
      rp_per_code = default_max_attempts;
      rp_base_total = default_max_attempts;
      rp_grand_total = default_max_attempts;
      rp_backoff_ms = 0;
      rp_jitter_ms = 0;
      rp_backoff_max_ms = None;
      rp_timeout_ms = None;
      rp_on_timeout = Ast.Ta_abort;
      rp_compensate = None;
      rp_declared = false;
    }
  else begin
    let substitute =
      match p.Schema.p_on_timeout with Ast.Ta_substitute c -> [ c ] | _ -> []
    in
    let base = primary :: p.Schema.p_alternatives in
    let per = match p.Schema.p_retry with Some n -> 1 + n | None -> default_max_attempts in
    {
      rp_codes = base @ substitute;
      rp_per_code = per;
      rp_base_total = per * List.length base;
      rp_grand_total = per * (List.length base + List.length substitute);
      rp_backoff_ms = p.Schema.p_backoff_ms;
      rp_jitter_ms = p.Schema.p_jitter_ms;
      rp_backoff_max_ms = p.Schema.p_backoff_max_ms;
      rp_timeout_ms = p.Schema.p_timeout_ms;
      rp_on_timeout = p.Schema.p_on_timeout;
      rp_compensate = p.Schema.p_compensate;
      rp_declared = true;
    }
  end

let policy_band rp ~attempt = (attempt - 1) / rp.rp_per_code

let policy_code rp ~attempt =
  let band = min (policy_band rp ~attempt) (List.length rp.rp_codes - 1) in
  List.nth rp.rp_codes band

(* [attempt] is the attempt that just failed. The substitute band lies
   beyond [rp_base_total] and is only entered by a timeout jump, so the
   failure-driven ceiling depends on which side the counter is on. *)
let policy_exhausted rp ~attempt =
  if attempt > rp.rp_base_total then attempt >= rp.rp_grand_total
  else attempt >= rp.rp_base_total

(* Delay before dispatching [attempt]: the first attempt of every band
   is immediate; the k-th retry within a band waits base * 2^(k-1),
   capped. The shift is clamped so huge retry counts cannot overflow. *)
let policy_backoff_ms rp ~attempt =
  let pos = ((attempt - 1) mod rp.rp_per_code) + 1 in
  if pos <= 1 || rp.rp_backoff_ms <= 0 then 0
  else begin
    let d = rp.rp_backoff_ms * (1 lsl min 20 (pos - 2)) in
    match rp.rp_backoff_max_ms with Some m -> min m d | None -> d
  end

(* The jitter is a pure hash of the identifying coordinates, NOT a draw
   from a runtime rng: rng draws would depend on scheduling interleaving
   and break same-seed reproducibility across schedules. [salt] is the
   engine-stable seed component, so distinct engines (and distinct
   seeds) spread differently while one run always reproduces itself. *)
let policy_jitter_ms rp ~salt ~iid ~path ~attempt =
  if rp.rp_jitter_ms <= 0 then 0
  else begin
    let h = ref 5381 in
    let mix s = String.iter (fun c -> h := ((!h * 33) + Char.code c) land 0x3FFFFFFF) s in
    mix salt;
    mix "\x00";
    mix iid;
    mix "\x00";
    List.iter (fun seg -> mix seg; mix "/") path;
    mix (string_of_int attempt);
    !h mod rp.rp_jitter_ms
  end

(* Backoff plus its deterministic spread; the first attempt of a band is
   still immediate (no delay to spread). *)
let policy_backoff_jittered_ms rp ~salt ~iid ~path ~attempt =
  match policy_backoff_ms rp ~attempt with
  | 0 -> 0
  | base -> base + policy_jitter_ms rp ~salt ~iid ~path ~attempt

(* First attempt of the band after [attempt]'s (a timeout-alternative
   jump target); the caller checks it against [rp_base_total]. *)
let policy_next_band_start rp ~attempt = ((policy_band rp ~attempt + 1) * rp.rp_per_code) + 1

(* First attempt of the trailing substitute band, when one exists. *)
let policy_substitute_start rp =
  match rp.rp_on_timeout with
  | Ast.Ta_substitute _ when rp.rp_declared -> Some (rp.rp_base_total + 1)
  | _ -> None

(* --- failure mapping (Fig 3) --- *)

(* A system failure maps onto an abort outcome when the taskclass
   declares one; otherwise the task fails outright. *)
let fail_action (task : Schema.task) ~path ~attempt ~reason =
  let abort_out =
    List.find_opt
      (fun (o : Schema.output) -> o.Schema.out_kind = Ast.Abort_outcome)
      task.Schema.outputs
  in
  match abort_out with
  | Some out ->
    Complete
      {
        a_path = path;
        a_name = out.Schema.out_name;
        a_kind = Ast.Abort_outcome;
        a_objects = wrap_outputs task ~output:out.Schema.out_name [];
        a_attempt = attempt;
      }
  | None -> Fail_task { a_path = path; a_reason = reason }

(* --- report classification (Fig 3's transition rules) --- *)

let impl_error_prefix = "$impl-error"

type decision =
  | D_retry
  | D_auto_restart
  | D_fail of string
  | D_apply of action
  | D_ignore

let report_decision v ~(task : Schema.task) ~path ~attempt ~is_mark ~output ~objects =
  if String.starts_with ~prefix:impl_error_prefix output then D_retry
  else
    match Schema.output_named task output with
    | None -> D_fail (Printf.sprintf "implementation produced undeclared output %s" output)
    | Some out -> (
      let objects = wrap_outputs task ~output:out.Schema.out_name objects in
      match out.Schema.out_kind with
      | Ast.Mark when is_mark ->
        if List.mem_assoc out.Schema.out_name (v.v_marks path) then D_ignore
        else D_apply (Fire_mark { a_path = path; a_name = out.Schema.out_name; a_objects = objects })
      | Ast.Mark ->
        D_fail (Printf.sprintf "implementation finished in mark output %s" out.Schema.out_name)
      | Ast.Outcome | Ast.Abort_outcome | Ast.Repeat_outcome when is_mark ->
        D_fail (Printf.sprintf "mark report names non-mark output %s" out.Schema.out_name)
      | Ast.Abort_outcome when v.v_marks path <> [] ->
        (* Fig 3: a task that released a mark may not abort *)
        D_apply
          (Fail_task { a_path = path; a_reason = "abort outcome after mark (protocol violation)" })
      | Ast.Abort_outcome when attempt <= impl_abort_retries task -> D_auto_restart
      | Ast.Repeat_outcome ->
        D_apply
          (Do_repeat
             { a_path = path; a_name = out.Schema.out_name; a_objects = objects; a_attempt = attempt + 1 })
      | Ast.Outcome | Ast.Abort_outcome ->
        D_apply
          (Complete
             {
               a_path = path;
               a_name = out.Schema.out_name;
               a_kind = out.Schema.out_kind;
               a_objects = objects;
               a_attempt = attempt;
             }))
