let buf_add = Buffer.add_string

let preamble =
  {|
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
|}

let root_class name =
  Printf.sprintf
    {|
taskclass %s {
    inputs { input main { data of class Data } };
    outputs { outcome finished { data of class Data } }
};
|}
    name

let step_task ?location b ~name ~code ~source =
  let impl =
    match location with
    | None -> Printf.sprintf "%S is %S" "code" code
    | Some node -> Printf.sprintf "%S is %S, %S is %S" "code" code "location" node
  in
  buf_add b
    (Printf.sprintf
       {|
    task %s of taskclass Step {
        implementation { %s };
        inputs { input main { inputobject data from { %s } } }
    };
|}
       name impl source)

let chain_build ?location n =
  if n < 1 then invalid_arg "Workloads.chain: n must be >= 1";
  let b = Buffer.create 1024 in
  buf_add b preamble;
  buf_add b (root_class "Chain");
  buf_add b "compoundtask chain of taskclass Chain {\n";
  for i = 1 to n do
    let source =
      if i = 1 then "data of task chain if input main"
      else Printf.sprintf "data of task s%d if output done" (i - 1)
    in
    step_task ?location b ~name:(Printf.sprintf "s%d" i) ~code:"w.step" ~source
  done;
  buf_add b
    (Printf.sprintf
       {|
    outputs { outcome finished { outputobject data from { data of task s%d if output done } } }
}
|}
       n);
  (Buffer.contents b, "chain")

let chain ~n = chain_build n

let chain_remote ~n ~host = chain_build ~location:host n

let fanout_build ?location width =
  if width < 1 then invalid_arg "Workloads.fanout: width must be >= 1";
  let b = Buffer.create 1024 in
  buf_add b preamble;
  (* a join class with one input object per branch *)
  buf_add b "taskclass Join {\n    inputs { input main {\n";
  for i = 1 to width do
    buf_add b (Printf.sprintf "        d%d of class Data%s\n" i (if i = width then "" else ";"))
  done;
  buf_add b "    } };\n    outputs { outcome done { data of class Data } }\n};\n";
  buf_add b (root_class "Fanout");
  buf_add b "compoundtask fanout of taskclass Fanout {\n";
  step_task b ~name:"src" ~code:"w.step" ~source:"data of task fanout if input main";
  for i = 1 to width do
    step_task ?location b ~name:(Printf.sprintf "w%d" i) ~code:"w.step"
      ~source:"data of task src if output done"
  done;
  buf_add b "    task join of taskclass Join {\n        implementation { \"code\" is \"w.join\" };\n";
  buf_add b "        inputs { input main {\n";
  for i = 1 to width do
    buf_add b
      (Printf.sprintf "            inputobject d%d from { data of task w%d if output done };\n" i i)
  done;
  buf_add b "        } }\n    };\n";
  buf_add b
    {|
    outputs { outcome finished { outputobject data from { data of task join if output done } } }
}
|};
  (Buffer.contents b, "fanout")

let fanout ~width = fanout_build width

let fanout_remote ~width ~host = fanout_build ~location:host width

let nested ~depth =
  if depth < 1 then invalid_arg "Workloads.nested: depth must be >= 1";
  let worker self =
    Printf.sprintf
      {|
    task worker of taskclass Step {
        implementation { "code" is "w.step" };
        inputs { input main { inputobject data from { data of task %s if input main } } }
    };
|}
      self
  in
  let rec level i parent =
    let name = if i = 1 then "nest" else Printf.sprintf "level%d" i in
    let inputs =
      if i = 1 then ""
      else
        Printf.sprintf
          "    inputs { input main { inputobject data from { data of task %s if input main } } };\n"
          parent
    in
    let inner, inner_name, inner_outcome =
      if i = depth then (worker name, "worker", "done")
      else (level (i + 1) name, Printf.sprintf "level%d" (i + 1), "finished")
    in
    Printf.sprintf
      {|compoundtask %s of taskclass Nest {
%s%s
    outputs { outcome finished { outputobject data from { data of task %s if output %s } } }
};
|}
      name inputs inner inner_name inner_outcome
  in
  (preamble ^ root_class "Nest" ^ level 1 "", "nest")

let alternatives ~k ~alive =
  if k < 1 || alive < 1 || alive > k then invalid_arg "Workloads.alternatives";
  let b = Buffer.create 1024 in
  buf_add b preamble;
  buf_add b
    {|
taskclass Flaky {
    inputs { input main { data of class Data } };
    outputs { outcome ok { data of class Data }; outcome dead { } }
};
|};
  buf_add b (root_class "Alt");
  buf_add b "compoundtask alt of taskclass Alt {\n";
  for i = 1 to k do
    let code = if i = alive then "w.alive" else "w.dead" in
    buf_add b
      (Printf.sprintf
         {|
    task p%d of taskclass Flaky {
        implementation { "code" is %S };
        inputs { input main { inputobject data from { data of task alt if input main } } }
    };
|}
         i code)
  done;
  buf_add b
    {|
    task consumer of taskclass Step {
        implementation { "code" is "w.step" };
        inputs { input main { inputobject data from {
|};
  for i = 1 to k do
    buf_add b
      (Printf.sprintf "            data of task p%d if output ok%s\n" i (if i = k then "" else ";"))
  done;
  buf_add b
    {|
        } } }
    };
    outputs { outcome finished { outputobject data from { data of task consumer if output done } } }
}
|};
  (Buffer.contents b, "alt")

(* --- declarative-recovery workloads ---

   One small script per recovery construct, all sharing the shape
   flow { work [ ; undo ] }: the interesting behaviour is concentrated
   in [work]'s recovery section and its deliberately misbehaving
   implementation. Every leaf is pinned to [host] so dispatches and
   completion reports cross the network — crash and partition schedules
   can land on the message boundaries. *)

let recovery_preamble =
  {|
class Data;
taskclass Step {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data } }
};
taskclass Flow {
    inputs { input main { data of class Data } };
    outputs { outcome finished { data of class Data }; outcome cancelled { } }
};
|}

let recovery_flow ~host ~code ~recovery ~tail ~outputs =
  ( Printf.sprintf
      {|%s%s
compoundtask flow of taskclass Flow {
    task work of taskclass %s {
        implementation { "code" is %S, "location" is %S };
        recovery { %s };
        inputs { input main { inputobject data from { data of task flow if input main } } }
    };
%s    outputs { %s }
}
|}
      recovery_preamble
      (if tail = "" then ""
       else
         {|
taskclass Risky {
    inputs { input main { data of class Data } };
    outputs { outcome done { data of class Data }; abort outcome failed { } }
};
|})
      (if tail = "" then "Step" else "Risky")
      code host recovery tail
      outputs,
    "flow" )

let finished_from_work =
  "outcome finished { outputobject data from { data of task work if output done } }"

(* Budgets are sized like Scenario.engine_config's generous globals:
   every crash-with-restart or healing-partition schedule must still be
   able to finish inside the declared budget (a wedged run would be a
   finding), while staying small enough that the conformance ceiling
   means something. A blocked attempt costs one watchdog period, so the
   spare attempts below cover several fault windows. *)
let recovery_retry ~host =
  recovery_flow ~host ~code:"r.flaky" ~recovery:"retry 8 backoff 5 max 40" ~tail:""
    ~outputs:finished_from_work

let recovery_timeout ~host =
  recovery_flow ~host ~code:"r.hang" ~recovery:{|timeout 50 then substitute "r.sub"|} ~tail:""
    ~outputs:finished_from_work

let recovery_alternative ~host =
  recovery_flow ~host ~code:"r.dead" ~recovery:{|retry 4; alternative "r.alive"|} ~tail:""
    ~outputs:finished_from_work

let recovery_compensate ~host =
  let undo =
    Printf.sprintf
      {|    task undo of taskclass Step {
        implementation { "code" is "r.undo", "location" is %S };
        inputs { input main { inputobject data from { data of task work if output done } } }
    };
|}
      host
  in
  recovery_flow ~host ~code:"r.abort" ~recovery:"compensate undo" ~tail:undo
    ~outputs:
      (finished_from_work
      ^ "; outcome cancelled { notification from { task work if output failed } }")

let register_recovery ?(work = Sim.ms 5) reg =
  let payload (ctx : Registry.context) =
    match ctx.Registry.inputs with
    | (_, { Value.payload; _ }) :: _ -> payload
    | [] -> Value.Unit
  in
  let done_ ctx = Registry.finish ~work "done" [ ("data", payload ctx) ] in
  (* succeeds on the third attempt: two declared retries are consumed *)
  let flaky (ctx : Registry.context) =
    if ctx.Registry.attempt < 3 then failwith "flaky" else done_ ctx
  in
  (* computes far past the declared 50ms timeout: only the watchdog and
     the substitute can conclude the task *)
  let hang ctx = Registry.finish ~work:(Sim.ms 200) "done" [ ("data", payload ctx) ] in
  let dead _ctx = failwith "dead" in
  let abort _ctx = Registry.finish ~work "failed" [] in
  Registry.bind reg ~code:"r.flaky" flaky;
  Registry.bind reg ~code:"r.hang" hang;
  Registry.bind reg ~code:"r.sub" done_;
  Registry.bind reg ~code:"r.dead" dead;
  Registry.bind reg ~code:"r.alive" done_;
  Registry.bind reg ~code:"r.abort" abort;
  Registry.bind reg ~code:"r.undo" done_

let register ?(work = Sim.ms 1) reg =
  let step (ctx : Registry.context) =
    let v =
      match ctx.Registry.inputs with
      | (_, { Value.payload; _ }) :: _ -> payload
      | [] -> Value.Unit
    in
    Registry.finish ~work "done" [ ("data", v) ]
  in
  let flaky_ok (ctx : Registry.context) =
    let v =
      match ctx.Registry.inputs with
      | (_, { Value.payload; _ }) :: _ -> payload
      | [] -> Value.Unit
    in
    Registry.finish ~work "ok" [ ("data", v) ]
  in
  let join _ctx = Registry.finish ~work "done" [ ("data", Value.Str "joined") ] in
  let dead _ctx = Registry.finish ~work "dead" [] in
  Registry.bind reg ~code:"w.step" step;
  Registry.bind reg ~code:"w.join" join;
  Registry.bind reg ~code:"w.dead" dead;
  Registry.bind reg ~code:"w.alive" flaky_ok

let seed_inputs = [ ("data", Value.obj ~cls:"Data" (Value.Str "seed")) ]
