let service_list = "wf.admin.list"

let service_status = "wf.admin.status"

let service_tasks = "wf.admin.tasks"

let service_cancel = "wf.admin.cancel"

let service_policy = "wf.admin.policy"

let service_history = "wf.admin.history"

(* every field of a status reply is a string *)
let enc_status_opt status =
  Wire.run
    (fun buf -> List.iter (Wire.b_string buf))
    (match status with
    | None -> [ "none" ]
    | Some Wstate.Wf_running -> [ "running" ]
    | Some (Wstate.Wf_done { output; objects }) ->
      [ "done"; output; Value.encode_bindings objects ]
    | Some (Wstate.Wf_failed reason) -> [ "failed"; reason ])

let dec_status_opt d =
  match Wire.d_string d with
  | "none" -> None
  | "running" -> Some Wstate.Wf_running
  | "done" ->
    let output = Wire.d_string d in
    let objects = Value.decode_bindings (Wire.d_string d) in
    Some (Wstate.Wf_done { output; objects })
  | "failed" -> Some (Wstate.Wf_failed (Wire.d_string d))
  | tag -> raise (Wire.Malformed ("bad status tag " ^ tag))

let serve engine =
  let node = Engine.node engine in
  Node.serve node ~service:service_list (fun ~src:_ _body ->
      Wire.(run (b_list b_string)) (Engine.instances engine));
  Node.serve node ~service:service_status (fun ~src:_ body ->
      let iid = Wire.(decode d_string) body in
      enc_status_opt (Engine.status engine iid));
  Node.serve node ~service:service_tasks (fun ~src:_ body ->
      let iid = Wire.(decode d_string) body in
      let states =
        List.map
          (fun (path, state) -> (path, Format.asprintf "%a" Wstate.pp_task_state state))
          (match Engine.mirror engine iid with Some inst -> Instate.task_states inst | None -> [])
      in
      Wire.(run (b_list (b_pair b_string b_string))) states);
  Node.serve node ~service:service_history (fun ~src:_ body ->
      let iid = Wire.(decode d_string) body in
      Wire.(run (b_list (b_triple b_int b_string b_string))) (Engine.history engine iid));
  Node.serve node ~service:service_policy (fun ~src:_ body ->
      let iid = Wire.(decode d_string) body in
      let rows =
        List.map
          (fun b ->
            Instate.
              ( b.pb_path,
                (b.pb_attempts, (b.pb_backoff_remaining, b.pb_compensated)) ))
          (match Engine.mirror engine iid with
          | Some inst -> Instate.policy_budgets inst ~now:(Engine.now engine)
          | None -> [])
      in
      Wire.(run (b_list (b_pair b_string (b_pair b_int (b_pair b_int b_bool))))) rows);
  Node.serve node ~service:service_cancel (fun ~src:_ body ->
      let iid, reason = Wire.(decode (d_pair d_string d_string)) body in
      (* the cancel transaction is asynchronous: a cancel is accepted
         unless [Engine.cancel] refuses it synchronously, and the durable
         state change follows (poll status to confirm) *)
      let accepted = ref (Ok ()) in
      Engine.cancel engine iid ~reason (function Error _ as e -> accepted := e | Ok () -> ());
      Wire.(run (b_result (fun _ () -> ()))) !accepted)

module Client = struct
  type t = { rpc : Rpc.t; src : string; engine_node : string }

  let create ~rpc ~src ~engine_node = { rpc; src; engine_node }

  let call t ~service ~body ~dec k =
    Rpc.call t.rpc ~src:t.src ~dst:t.engine_node ~service ~body (function
      | Ok reply -> (
        match dec reply with v -> k (Ok v) | exception Wire.Malformed m -> k (Error m))
      | Error e -> k (Error ("rpc: " ^ e)))

  let list_instances t k =
    call t ~service:service_list ~body:"" ~dec:Wire.(decode (d_list d_string)) k

  let status t ~iid k =
    call t ~service:service_status ~body:(Wire.run Wire.b_string iid)
      ~dec:(Wire.decode dec_status_opt) k

  let task_states t ~iid k =
    call t ~service:service_tasks ~body:(Wire.run Wire.b_string iid)
      ~dec:Wire.(decode (d_list (d_pair d_string d_string)))
      k

  let history t ~iid k =
    call t ~service:service_history ~body:(Wire.run Wire.b_string iid)
      ~dec:Wire.(decode (d_list (d_triple d_int d_string d_string)))
      k

  let policy_budgets t ~iid k =
    call t ~service:service_policy ~body:(Wire.run Wire.b_string iid)
      ~dec:
        Wire.(
          decode
            (d_list (fun d ->
                 let path, (attempts, (backoff, comp)) =
                   d_pair d_string (d_pair d_int (d_pair d_int d_bool)) d
                 in
                 { Instate.pb_path = path; pb_attempts = attempts;
                   pb_backoff_remaining = backoff; pb_compensated = comp })))
      k

  let cancel t ~iid ~reason k =
    call t ~service:service_cancel
      ~body:(Wire.(run (b_pair b_string b_string)) (iid, reason))
      ~dec:Wire.(decode (d_result (fun _ -> ())))
      (fun r -> k (Result.join r))
end
