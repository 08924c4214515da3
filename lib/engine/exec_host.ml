type t = {
  rpc : Rpc.t;
  node : Node.t;
  registry : Registry.t;
  engine_node : string;
  sim : Sim.t;
  rng : Rng.t;
}

let report_retries = 20

let send_report t ~service (report : Wfmsg.report) =
  Rpc.call t.rpc ~src:(Node.id t.node) ~dst:t.engine_node ~service
    ~body:(Wfmsg.enc_report report) ~retries:report_retries (fun _ -> ())

(* Run the plan's steps in sequence over simulated time. Every step is
   fenced by the node's incarnation: a crash orphans the plan. *)
let run_plan t (req : Wfmsg.exec_req) (plan : Registry.plan) =
  let inc = Node.incarnation t.node in
  let alive () = Node.incarnation t.node = inc in
  let report output objects =
    {
      Wfmsg.r_iid = req.x_iid;
      r_path = req.x_path;
      r_attempt = req.x_attempt;
      r_output = output;
      r_objects = objects;
    }
  in
  let rec steps = function
    | [] ->
      if alive () then
        send_report t
          ~service:(Wfmsg.service_done ~engine:t.engine_node)
          (report plan.Registry.finish.output plan.Registry.finish.objects)
    | Registry.Work span :: rest ->
      ignore (Sim.schedule t.sim ~delay:span (fun () -> if alive () then steps rest))
    | Registry.Emit_mark mark :: rest ->
      if alive () then begin
        send_report t
          ~service:(Wfmsg.service_mark ~engine:t.engine_node)
          (report mark.Registry.output mark.Registry.objects);
        steps rest
      end
  in
  steps plan.Registry.steps

let handle_exec t ~src:_ body =
  let req = Wfmsg.dec_exec body in
  match Registry.find t.registry ~code:req.x_code with
  | None | Some (Registry.Sub_workflow _) -> Wfmsg.reply_no_impl
  | Some (Registry.Fn fn) ->
    let ctx =
      {
        Registry.attempt = req.x_attempt;
        input_set = req.x_set;
        inputs = req.x_inputs;
        rng = Rng.split t.rng;
      }
    in
    (match fn ctx with
    | plan -> run_plan t req plan
    | exception exn ->
      (* implementation bug: surface as a system-level failure *)
      let output = "$impl-error:" ^ Printexc.to_string exn in
      send_report t ~service:(Wfmsg.service_done ~engine:t.engine_node)
        {
          Wfmsg.r_iid = req.x_iid;
          r_path = req.x_path;
          r_attempt = req.x_attempt;
          r_output = output;
          r_objects = [];
        });
    Wfmsg.reply_ok

let attach ~rpc ~node ~registry ~engine_node =
  let sim = Network.sim (Rpc.network rpc) in
  let t = { rpc; node; registry; engine_node; sim; rng = Rng.split (Sim.rng sim) } in
  Node.serve node ~service:(Wfmsg.service_exec ~engine:engine_node) (handle_exec t);
  t
