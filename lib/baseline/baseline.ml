type tstate =
  | Waiting of int  (** attempt *)
  | Running of int
  | Done of { output : string; kind : Ast.output_kind; objects : (string * Value.obj) list }
  | Failed of string

type inst = {
  iid : string;
  schema : Schema.task;
  inputs : (string * Value.obj) list;
  states : (string, tstate) Hashtbl.t;
  chosen : (string, string * (string * Value.obj) list) Hashtbl.t;
  marks : (string, (string * (string * Value.obj) list) list) Hashtbl.t;
  repeats : (string, string * (string * Value.obj) list) Hashtbl.t;
  mutable status : Wstate.status;
  mutable queued : bool;  (* an evaluation is settled for this instant *)
}

type t = {
  sim : Sim.t;
  node : Node.t;
  registry : Registry.t;
  rng : Rng.t;
  insts : (string, inst) Hashtbl.t;
  pending_relaunch : (string, string * Schema.task * (string * Value.obj) list) Hashtbl.t;
  mutable seq : int;
  mutable executed : int;
  mutable restarts : int;
  mutable observers : (string -> Wstate.status -> unit) list;
}

let pkey = String.concat "/"

let state inst path = Hashtbl.find_opt inst.states (pkey path)

let marks_of inst path =
  match Hashtbl.find_opt inst.marks (pkey path) with Some l -> l | None -> []

(* --- availability over the volatile tables --- *)

type ctx = {
  c_inst : inst;
  c_scope : string list;
  c_enclosing : string;
  c_set : string option;
  c_scope_inputs : (string * Value.obj) list;
  c_siblings : Schema.task list;
}

let sibling ctx name = List.exists (fun (s : Schema.task) -> s.Schema.name = name) ctx.c_siblings

let source_value ctx (os : Schema.obj_source) =
  if (not (sibling ctx os.Schema.s_task)) && os.Schema.s_task = ctx.c_enclosing then
    match os.Schema.s_cond with
    | Schema.C_input set when ctx.c_set = Some set -> List.assoc_opt os.Schema.s_obj ctx.c_scope_inputs
    | _ -> None
  else begin
    let path = ctx.c_scope @ [ os.Schema.s_task ] in
    let inst = ctx.c_inst in
    let from_marks oc =
      Option.bind (List.assoc_opt oc (marks_of inst path)) (List.assoc_opt os.Schema.s_obj)
    in
    match os.Schema.s_cond with
    | Schema.C_output oc -> (
      match state inst path with
      | Some (Done { output; objects; _ }) when output = oc -> List.assoc_opt os.Schema.s_obj objects
      | _ -> (
        match from_marks oc with
        | Some v -> Some v
        | None -> (
          match Hashtbl.find_opt inst.repeats (pkey path) with
          | Some (out, objects) when out = oc -> List.assoc_opt os.Schema.s_obj objects
          | _ -> None)))
    | Schema.C_input set -> (
      match Hashtbl.find_opt inst.chosen (pkey path) with
      | Some (s, values) when s = set -> List.assoc_opt os.Schema.s_obj values
      | _ -> None)
    | Schema.C_any -> (
      match state inst path with
      | Some (Done { objects; kind; _ }) when kind <> Ast.Repeat_outcome ->
        List.assoc_opt os.Schema.s_obj objects
      | _ ->
        List.find_map (fun (_, objects) -> List.assoc_opt os.Schema.s_obj objects) (marks_of inst path))
  end

let notif_ok ctx (ns : Schema.notif_source) =
  if (not (sibling ctx ns.Schema.n_task)) && ns.Schema.n_task = ctx.c_enclosing then
    match ns.Schema.n_cond with
    | Schema.C_input set -> ctx.c_set = Some set
    | Schema.C_output _ -> false
    | Schema.C_any -> true
  else begin
    let path = ctx.c_scope @ [ ns.Schema.n_task ] in
    let inst = ctx.c_inst in
    match ns.Schema.n_cond with
    | Schema.C_output oc -> (
      match state inst path with
      | Some (Done { output; _ }) -> output = oc
      | _ -> (
        List.mem_assoc oc (marks_of inst path)
        || match Hashtbl.find_opt inst.repeats (pkey path) with Some (o, _) -> o = oc | None -> false))
    | Schema.C_input set -> (
      match Hashtbl.find_opt inst.chosen (pkey path) with Some (s, _) -> s = set | _ -> false)
    | Schema.C_any -> (
      match state inst path with Some (Done { kind; _ }) -> kind <> Ast.Repeat_outcome | _ -> false)
  end

let notifs_ok ctx groups = List.for_all (fun g -> List.exists (notif_ok ctx) g) groups

let satisfy_set ctx ~root (s : Schema.input_set) =
  if not (notifs_ok ctx s.Schema.is_notifications) then None
  else begin
    let resolve (io : Schema.input_object) =
      match io.Schema.io_sources with
      | [] -> if root then Option.map (fun v -> (io.Schema.io_name, v)) (List.assoc_opt io.Schema.io_name ctx.c_inst.inputs) else None
      | sources -> Option.map (fun v -> (io.Schema.io_name, v)) (List.find_map (source_value ctx) sources)
    in
    let values = List.map resolve s.Schema.is_objects in
    if List.for_all Option.is_some values then Some (s.Schema.is_name, List.map Option.get values)
    else None
  end

let binding_ready ctx (b : Schema.binding) =
  if not (notifs_ok ctx b.Schema.b_notifications) then None
  else begin
    let values =
      List.map
        (fun (name, sources) -> Option.map (fun v -> (name, v)) (List.find_map (source_value ctx) sources))
        b.Schema.b_objects
    in
    if List.for_all Option.is_some values then Some (List.map Option.get values) else None
  end

(* --- execution --- *)

let wrap (task : Schema.task) ~output objects =
  match Schema.output_named task output with
  | None -> []
  | Some out ->
    List.map
      (fun (name, cls) ->
        let payload = match List.assoc_opt name objects with Some v -> v | None -> Value.Unit in
        (name, Value.obj ~cls payload))
      out.Schema.out_objects

let rec evaluate t inst =
  if inst.status = Wstate.Wf_running && Node.up t.node then begin
    let changed = eval_task t inst ~scope:[] ~enclosing:"" ~set:None ~scope_inputs:[] ~siblings:[ inst.schema ] ~root:true inst.schema in
    (match state inst [ inst.schema.Schema.name ] with
    | Some (Done { output; objects; _ }) ->
      inst.status <- Wstate.Wf_done { output; objects };
      List.iter (fun f -> f inst.iid inst.status) t.observers
    | Some (Failed reason) ->
      inst.status <- Wstate.Wf_failed reason;
      List.iter (fun f -> f inst.iid inst.status) t.observers
    | _ -> ());
    if changed && inst.status = Wstate.Wf_running then evaluate t inst
  end

and eval_task t inst ~scope ~enclosing ~set ~scope_inputs ~siblings ~root (task : Schema.task) =
  let path = scope @ [ task.Schema.name ] in
  let ctx = { c_inst = inst; c_scope = scope; c_enclosing = enclosing; c_set = set; c_scope_inputs = scope_inputs; c_siblings = siblings } in
  match state inst path with
  | Some (Done _ | Failed _) -> false
  | None | Some (Waiting _) -> try_start t inst ~ctx ~path ~root task
  | Some (Running _) -> (
    match task.Schema.body with
    | Schema.Compound { children; bindings } -> eval_scope t inst ~path ~children ~bindings task
    | Schema.Simple -> false)

and try_start t inst ~ctx ~path ~root task =
  let attempt = match state inst path with Some (Waiting a) -> a | _ -> 1 in
  match List.find_map (satisfy_set ctx ~root) task.Schema.inputs with
  | None -> false
  | Some (set, values) ->
    Hashtbl.replace inst.states (pkey path) (Running attempt);
    Hashtbl.replace inst.chosen (pkey path) (set, values);
    (match task.Schema.body with
    | Schema.Compound _ -> ignore (eval_task t inst ~scope:ctx.c_scope ~enclosing:ctx.c_enclosing ~set:ctx.c_set ~scope_inputs:ctx.c_scope_inputs ~siblings:ctx.c_siblings ~root task)
    | Schema.Simple -> run_impl t inst ~path ~task ~attempt ~set ~values);
    true

and run_impl t inst ~path ~task ~attempt ~set ~values =
  let code = match Ast.impl_code task.Schema.impl with Some c -> c | None -> "" in
  match Registry.find t.registry ~code with
  | Some (Registry.Fn fn) ->
    t.executed <- t.executed + 1;
    let ctx = { Registry.attempt; input_set = set; inputs = values; rng = Rng.split t.rng } in
    let plan = fn ctx in
    let inc = Node.incarnation t.node in
    let total, timed_marks =
      List.fold_left
        (fun (at, acc) step ->
          match step with
          | Registry.Work span -> (at + span, acc)
          | Registry.Emit_mark m -> (at, (at, m) :: acc))
        (0, []) plan.Registry.steps
    in
    let fire_mark (at, (m : Registry.outcome)) =
      ignore
        (Sim.schedule t.sim ~delay:at (fun () ->
             if Node.incarnation t.node = inc then begin
               let objects = wrap task ~output:m.Registry.output m.Registry.objects in
               Hashtbl.replace inst.marks (pkey path)
                 (marks_of inst path @ [ (m.Registry.output, objects) ]);
               settle_evaluation t inst
             end))
    in
    List.iter fire_mark (List.rev timed_marks);
    ignore
      (Sim.schedule t.sim ~delay:total (fun () ->
           if Node.incarnation t.node = inc then begin
             finish_task t inst ~path ~task ~attempt plan.Registry.finish;
             settle_evaluation t inst
           end))
  | Some (Registry.Sub_workflow _) | None ->
    Hashtbl.replace inst.states (pkey path) (Failed ("no implementation for " ^ code))

(* Readiness is judged once per virtual instant, after every event at
   that instant (the same-instant rule, {!Sim.settle}), as the engine
   judges it. *)
and settle_evaluation t inst =
  if not inst.queued then begin
    inst.queued <- true;
    let inc = Node.incarnation t.node in
    Sim.settle t.sim (fun () ->
        inst.queued <- false;
        if Node.incarnation t.node = inc then evaluate t inst)
  end

and finish_task _t inst ~path ~task ~attempt (outcome : Registry.outcome) =
  match Schema.output_named task outcome.Registry.output with
  | None ->
    Hashtbl.replace inst.states (pkey path) (Failed ("undeclared output " ^ outcome.Registry.output))
  | Some out -> (
    let objects = wrap task ~output:out.Schema.out_name outcome.Registry.objects in
    match out.Schema.out_kind with
    | Ast.Repeat_outcome ->
      Hashtbl.replace inst.repeats (pkey path) (out.Schema.out_name, objects);
      Hashtbl.replace inst.states (pkey path) (Waiting (attempt + 1))
    | Ast.Mark -> Hashtbl.replace inst.states (pkey path) (Failed "finished in a mark output")
    | Ast.Outcome | Ast.Abort_outcome ->
      Hashtbl.replace inst.states (pkey path)
        (Done { output = out.Schema.out_name; kind = out.Schema.out_kind; objects }))

and eval_scope t inst ~path ~children ~bindings (task : Schema.task) =
  let chosen = Hashtbl.find_opt inst.chosen (pkey path) in
  let ctx =
    {
      c_inst = inst;
      c_scope = path;
      c_enclosing = task.Schema.name;
      c_set = Option.map fst chosen;
      c_scope_inputs = (match chosen with Some (_, v) -> v | None -> []);
      c_siblings = children;
    }
  in
  let final =
    List.find_map
      (fun (b : Schema.binding) ->
        match b.Schema.b_kind with
        | Ast.Outcome | Ast.Abort_outcome -> Option.map (fun o -> (b, o)) (binding_ready ctx b)
        | Ast.Repeat_outcome | Ast.Mark -> None)
      bindings
  in
  match final with
  | Some (b, objects) ->
    Hashtbl.replace inst.states (pkey path)
      (Done { output = b.Schema.b_name; kind = b.Schema.b_kind; objects });
    true
  | None -> (
    let repeat =
      List.find_map
        (fun (b : Schema.binding) ->
          if b.Schema.b_kind = Ast.Repeat_outcome then Option.map (fun o -> (b, o)) (binding_ready ctx b)
          else None)
        bindings
    in
    match repeat with
    | Some (b, objects) ->
      Hashtbl.replace inst.repeats (pkey path) (b.Schema.b_name, objects);
      (* wipe the subtree *)
      let prefix = pkey path ^ "/" in
      let purge tbl =
        let doomed =
          Hashtbl.fold
            (fun k _ acc ->
              if String.length k > String.length prefix && String.sub k 0 (String.length prefix) = prefix
              then k :: acc
              else acc)
            tbl []
        in
        List.iter (Hashtbl.remove tbl) doomed
      in
      purge inst.states;
      purge inst.chosen;
      purge inst.marks;
      purge inst.repeats;
      Hashtbl.remove inst.chosen (pkey path);
      let attempt = match state inst path with Some (Running a) -> a | _ -> 1 in
      Hashtbl.replace inst.states (pkey path) (Waiting (attempt + 1));
      true
    | None ->
      let fired = marks_of inst path in
      let mark_changed =
        List.fold_left
          (fun acc (b : Schema.binding) ->
            if b.Schema.b_kind = Ast.Mark && not (List.mem_assoc b.Schema.b_name fired) then
              match binding_ready ctx b with
              | Some objects ->
                Hashtbl.replace inst.marks (pkey path) (marks_of inst path @ [ (b.Schema.b_name, objects) ]);
                true
              | None -> acc
            else acc)
          false bindings
      in
      List.fold_left
        (fun acc child ->
          eval_task t inst ~scope:path ~enclosing:task.Schema.name
            ~set:(Option.map fst chosen)
            ~scope_inputs:(match chosen with Some (_, v) -> v | None -> [])
            ~siblings:children ~root:false child
          || acc)
        mark_changed children)

(* --- lifecycle --- *)

let fresh_inst iid schema inputs =
  {
    iid;
    schema;
    inputs;
    states = Hashtbl.create 32;
    chosen = Hashtbl.create 32;
    marks = Hashtbl.create 8;
    repeats = Hashtbl.create 8;
    status = Wstate.Wf_running;
    queued = false;
  }

let start t iid schema inputs =
  let inst = fresh_inst iid schema inputs in
  Hashtbl.replace t.insts iid inst;
  settle_evaluation t inst

let create ~sim ~node ~registry =
  let t =
    {
      sim;
      node;
      registry;
      rng = Rng.split (Sim.rng sim);
      insts = Hashtbl.create 8;
      pending_relaunch = Hashtbl.create 8;
      seq = 0;
      executed = 0;
      restarts = 0;
      observers = [];
    }
  in
  Node.on_crash node (fun () ->
      Hashtbl.iter
        (fun iid inst ->
          if inst.status = Wstate.Wf_running then
            Hashtbl.replace t.pending_relaunch iid (iid, inst.schema, inst.inputs))
        t.insts;
      Hashtbl.reset t.insts);
  Node.on_recover node (fun () ->
      let lost = Hashtbl.fold (fun _ v acc -> v :: acc) t.pending_relaunch [] in
      Hashtbl.reset t.pending_relaunch;
      List.iter
        (fun (iid, schema, inputs) ->
          t.restarts <- t.restarts + 1;
          start t iid schema inputs)
        lost);
  t

let launch t ~script ~root ~inputs =
  match Frontend.compile script ~root with
  | Error e -> Error (Frontend.error_to_string e)
  | Ok schema ->
    t.seq <- t.seq + 1;
    let iid = Printf.sprintf "bl-%d" t.seq in
    start t iid schema inputs;
    Ok iid

let status t iid =
  match Hashtbl.find_opt t.insts iid with
  | Some inst -> Some inst.status
  | None -> if Hashtbl.mem t.pending_relaunch iid then Some Wstate.Wf_running else None

let on_any_complete t f = t.observers <- t.observers @ [ f ]

let tasks_executed_total t = t.executed

let restarts_total t = t.restarts
