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

(* --- the reverse-dependency index --- *)

(* Built once per instance from the (expanded) schema: one node per
   task, holding its children by name and the nodes whose readiness a
   change to its records can affect. Edges, for a compound scope P with
   children C and output bindings B:
   - P -> P/c for every child c: starting, repeating or re-choosing the
     scope re-evaluates every constituent (this also covers enclosing
     [C_input] references, which read the scope's chosen record);
   - P/s -> P/c whenever child c's input sets name sibling s as an
     object or notification source;
   - P/s -> P whenever a binding in B names sibling s.
   Dirty paths are always candidates themselves, so no self edges.

   An incremental pass stamps its candidates with the pass number, and
   every candidate and every ancestor of one enters its parent's visit
   list. A scope then visits exactly those children, so the pass costs
   what changed, not the width of the scopes it crosses. *)
type node = {
  n_task : Schema.task;
  n_pos : int;  (* declaration position among its siblings *)
  n_parent : node option;
  n_kids : (string, node) Hashtbl.t;  (* children by name *)
  mutable n_deps : node list;
  mutable n_cand : int;  (* the last pass this node was a candidate in *)
  mutable n_listed : int;  (* the last pass it entered its parent's visit list *)
  mutable n_visit : node list;  (* children to visit in pass [n_visit_pass] *)
  mutable n_visit_pass : int;
}

type index = { idx_root : node; mutable idx_pass : int }

(* Shared by every node without children; never written. *)
let no_kids : (string, node) Hashtbl.t = Hashtbl.create 1

let build_index ~effective (root : Schema.task) =
  let make ~parent ~pos task kids =
    {
      n_task = task;
      n_pos = pos;
      n_parent = parent;
      n_kids = kids;
      n_deps = [];
      n_cand = 0;
      n_listed = 0;
      n_visit = [];
      n_visit_pass = 0;
    }
  in
  let rec node ~parent ~pos (task : Schema.task) =
    match effective task with
    | E_fn _ | E_missing _ | E_compound { children = []; _ } -> make ~parent ~pos task no_kids
    | E_compound { children; bindings; _ } ->
      let p = make ~parent ~pos task (Hashtbl.create (List.length children)) in
      (* a repeated name resolves to its first declaration, as a list
         search would *)
      List.iteri
        (fun pos (c : Schema.task) ->
          if not (Hashtbl.mem p.n_kids c.Schema.name) then
            Hashtbl.add p.n_kids c.Schema.name (node ~parent:(Some p) ~pos c))
        children;
      (* duplicate edges are harmless: stamping is idempotent *)
      let src_edge dst name =
        match Hashtbl.find_opt p.n_kids name with
        | Some s -> s.n_deps <- dst :: s.n_deps
        | None -> ()
      in
      List.iter
        (fun (c : Schema.task) ->
          let cn = Hashtbl.find p.n_kids c.Schema.name in
          p.n_deps <- cn :: p.n_deps;
          List.iter
            (fun (s : Schema.input_set) ->
              List.iter
                (fun (io : Schema.input_object) ->
                  List.iter
                    (fun (os : Schema.obj_source) -> src_edge cn os.Schema.s_task)
                    io.Schema.io_sources)
                s.Schema.is_objects;
              List.iter
                (List.iter (fun (ns : Schema.notif_source) -> src_edge cn ns.Schema.n_task))
                s.Schema.is_notifications)
            c.Schema.inputs)
        children;
      List.iter
        (fun (b : Schema.binding) ->
          List.iter
            (fun ((_, sources) : string * Schema.obj_source list) ->
              List.iter (fun (os : Schema.obj_source) -> src_edge p os.Schema.s_task) sources)
            b.Schema.b_objects;
          List.iter
            (List.iter (fun (ns : Schema.notif_source) -> src_edge p ns.Schema.n_task))
            b.Schema.b_notifications)
        bindings;
      p
  in
  { idx_root = node ~parent:None ~pos:0 root; idx_pass = 0 }

(* The node at an absolute path (root task first): one table probe per
   segment, whatever the width of the scopes on the way. *)
let node_at idx path =
  let rec go n = function
    | [] -> Some n
    | name :: rest -> (
      match Hashtbl.find_opt n.n_kids name with Some k -> go k rest | None -> None)
  in
  match path with
  | name :: rest when name = idx.idx_root.n_task.Schema.name -> go idx.idx_root rest
  | _ -> None

let find_task idx path = Option.map (fun n -> n.n_task) (node_at idx path)

(* [n] and each of its ancestors enter their parent's visit list for
   [pass], once. *)
let rec enlist pass n =
  if n.n_listed <> pass then begin
    n.n_listed <- pass;
    match n.n_parent with
    | None -> ()
    | Some p ->
      if p.n_visit_pass = pass then p.n_visit <- n :: p.n_visit
      else begin
        p.n_visit_pass <- pass;
        p.n_visit <- [ n ]
      end;
      enlist pass p
  end

let stamp pass n =
  if n.n_cand <> pass then begin
    n.n_cand <- pass;
    enlist pass n
  end

(* The children of [n] to visit in [pass], in declaration order. *)
let visits n ~pass =
  if n.n_visit_pass <> pass then []
  else
    match n.n_visit with
    | ([] | [ _ ]) as one -> one
    | many -> List.sort (fun a b -> Int.compare a.n_pos b.n_pos) many

(* --- availability --- *)

type ctx = {
  c_view : view;
  c_pass : int;  (* the incremental pass; unused by the full scan *)
  c_scope : Wstate.path;
  c_enclosing : string option;
  c_scope_set : string option;
  c_scope_inputs : (string * Value.obj) list;
  c_sibling : string -> bool;  (* names a child of [c_scope] *)
}

let in_list children name = List.exists (fun (s : Schema.task) -> s.Schema.name = name) children

let make_ctx v ~pass ~scope ~alias ~sibling =
  let chosen = v.v_chosen scope in
  {
    c_view = v;
    c_pass = pass;
    c_scope = scope;
    c_enclosing = Some alias;
    c_scope_set = Option.map (fun c -> c.Wstate.c_set) chosen;
    c_scope_inputs = (match chosen with Some c -> c.Wstate.c_inputs | None -> []);
    c_sibling = sibling;
  }

let scope_ctx v ~scope ~alias ~children =
  make_ctx v ~pass:0 ~scope ~alias ~sibling:(in_list children)

let mark_objects ctx path oc = List.assoc_opt oc (ctx.c_view.v_marks path)

let obj_source_value ctx (os : Schema.obj_source) =
  let sibling = ctx.c_sibling os.Schema.s_task in
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
  let sibling = ctx.c_sibling ns.Schema.n_task in
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

let is_timer (io : Schema.input_object) =
  io.Schema.io_sources = [] && io.Schema.io_class = timer_class

let resolve_input ctx ~path ~set (io : Schema.input_object) =
  match io.Schema.io_sources with
  | [] ->
    if io.Schema.io_class = timer_class then
      if ctx.c_view.v_timer_fired path ~set then Some (Value.obj ~cls:timer_class Value.Unit)
      else None
    else if ctx.c_enclosing = None then ctx.c_view.v_external io.Schema.io_name
    else None
  | sources -> List.find_map (obj_source_value ctx) sources

(* §3: a set is available once every one of its objects is, so the
   first missing object settles the verdict. All that is left to learn
   then is whether an unfired source-less timer (the missing object
   itself, or one declared after it) must be armed. *)
let try_input_set ctx ~path (s : Schema.input_set) =
  if not (notif_groups_satisfied ctx s.Schema.is_notifications) then `No
  else begin
    let set = s.Schema.is_name in
    let unfired io = is_timer io && resolve_input ctx ~path ~set io = None in
    let rec resolve acc = function
      | [] -> `Yes (set, List.rev acc)
      | (io : Schema.input_object) :: rest -> (
        match resolve_input ctx ~path ~set io with
        | Some v -> resolve ((io.Schema.io_name, v) :: acc) rest
        | None -> if is_timer io || List.exists unfired rest then `Arm_timer set else `No)
    in
    resolve [] s.Schema.is_objects
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

(* Like an input set, a binding stops at its first missing object. *)
let binding_ready ctx (b : Schema.binding) =
  if not (notif_groups_satisfied ctx b.Schema.b_notifications) then None
  else begin
    let rec resolve acc = function
      | [] -> Some (List.rev acc)
      | (name, sources) :: rest -> (
        match List.find_map (obj_source_value ctx) sources with
        | Some v -> resolve ((name, v) :: acc) rest
        | None -> None)
    in
    resolve [] b.Schema.b_objects
  end

(* One scan pass; actions come back in declaration order. [at] is the
   task's index node in an incremental pass and [None] in the full
   scan, which visits every node. An incremental pass visits only the
   stamped candidates and their ancestors, and evaluates only the
   candidates ([cand]) — sound because a non-candidate's readiness
   cannot have changed since the previous pass, when it was either
   acted upon or found unready. *)
let rec scan_task ~ctx ~cand ~at (task : Schema.task) acc =
  let v = ctx.c_view in
  let path = ctx.c_scope @ [ task.Schema.name ] in
  match v.v_state path with
  | Some (Wstate.Done _ | Wstate.Failed _) -> acc
  | None | Some (Wstate.Waiting _) -> if cand then scan_waiting ~ctx task path acc else acc
  | Some (Wstate.Running _) -> (
    match v.v_effective task with
    | E_compound { children; bindings; alias } ->
      scan_scope ~v ~pass:ctx.c_pass ~at ~self:cand ~path ~children ~bindings ~alias acc
    | E_fn _ | E_missing _ -> acc)

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

and scan_scope ~v ~pass ~at ~self ~path ~children ~bindings ~alias acc =
  let sibling = match at with None -> in_list children | Some n -> Hashtbl.mem n.n_kids in
  let ctx = make_ctx v ~pass ~scope:path ~alias ~sibling in
  let attempt = running_attempt v path in
  (* binding evaluation only when the scope itself is a candidate: if it
     is not, no binding input changed since the last pass, so none can
     have become ready (and none was ready then, or it would have fired
     and closed the scope) *)
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
    | None -> (
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
      match at with
      | None ->
        List.fold_left (fun acc child -> scan_task ~ctx ~cand:true ~at child acc) acc children
      | Some n -> scan_visits ~ctx n acc))

(* The children of [n] that incremental pass [ctx.c_pass] visits. *)
and scan_visits ~ctx n acc =
  let pass = ctx.c_pass in
  List.fold_left
    (fun acc k -> scan_task ~ctx ~cand:(k.n_cand = pass) ~at:(Some k) k.n_task acc)
    acc (visits n ~pass)

(* The context above the root: no enclosing scope, the root its only
   sibling. *)
let top_ctx v ~pass (root : Schema.task) =
  {
    c_view = v;
    c_pass = pass;
    c_scope = [];
    c_enclosing = None;
    c_scope_set = None;
    c_scope_inputs = [];
    c_sibling = (fun name -> name = root.Schema.name);
  }

let scan v ~root = List.rev (scan_task ~ctx:(top_ctx v ~pass:0 root) ~cand:true ~at:None root [])

(* --- dirty sets --- *)

type dirty = All | Paths of Wstate.path list

let no_dirty = Paths []

let add_dirty d paths = match d with All -> All | Paths ps -> Paths (paths @ ps)

let scan_from idx v ~root ~dirty =
  match dirty with
  | All -> scan v ~root
  | Paths [] -> []
  | Paths ps ->
    (* candidates: the dirty paths plus their indexed dependents. A path
       the index does not know (a binding changed since it was built)
       falls back to the full scan. *)
    idx.idx_pass <- idx.idx_pass + 1;
    let pass = idx.idx_pass in
    let indexed p =
      match node_at idx p with
      | Some n ->
        stamp pass n;
        List.iter (stamp pass) n.n_deps;
        true
      | None -> false
    in
    if not (List.for_all indexed ps) then scan v ~root
    else begin
      (* every stamp enlisted the root *)
      let r = idx.idx_root in
      let ctx = top_ctx v ~pass root in
      List.rev (scan_task ~ctx ~cand:(r.n_cand = pass) ~at:(Some r) r.n_task [])
    end

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
