type outcome = {
  output : string;
  objects : (string * Value.t) list;
}

type step =
  | Work of Sim.time
  | Emit_mark of outcome

type plan = { steps : step list; finish : outcome }

type context = {
  attempt : int;
  input_set : string;
  inputs : (string * Value.obj) list;
  rng : Rng.t;
}

type fn = context -> plan

type impl =
  | Fn of fn
  | Sub_workflow of Schema.task

type t = { bindings : (string, impl) Hashtbl.t }

let create () = { bindings = Hashtbl.create 32 }

let bind t ~code fn = Hashtbl.replace t.bindings code (Fn fn)

let bind_script t ~code schema = Hashtbl.replace t.bindings code (Sub_workflow schema)

let find t ~code = Hashtbl.find_opt t.bindings code

let finish ?(work = Sim.ms 1) output objects = { steps = [ Work work ]; finish = { output; objects } }

let const ?work output objects _ctx = finish ?work output objects

(* What scheduling sees through a task's binding: a compound scope
   (inline, or a bound sub-workflow script, paper §4.3), a leaf
   function, or a binding error surfaced as a task failure. *)
let effective t (task : Schema.task) =
  match task.Schema.body with
  | Schema.Compound { children; bindings } ->
    Sched.E_compound { children; bindings; alias = task.Schema.name }
  | Schema.Simple -> (
    match Ast.impl_code task.Schema.impl with
    | None -> Sched.E_missing "no code binding"
    | Some code -> (
      match find t ~code with
      | Some (Fn _) -> Sched.E_fn code
      | Some (Sub_workflow sub) -> (
        match sub.Schema.body with
        | Schema.Compound { children; bindings } ->
          Sched.E_compound { children; bindings; alias = sub.Schema.name }
        | Schema.Simple -> Sched.E_missing (code ^ " is bound to a non-compound schema"))
      | None -> Sched.E_missing ("no implementation bound for code " ^ code)))
