let service_list = "wf.admin.list"

let service_status = "wf.admin.status"

let service_tasks = "wf.admin.tasks"

let service_cancel = "wf.admin.cancel"

let service_policy = "wf.admin.policy"

let service_history = "wf.admin.history"

let enc_status_opt = function
  | None -> Wire.string "none"
  | Some Wstate.Wf_running -> Wire.string "running"
  | Some (Wstate.Wf_done { output; objects }) ->
    Wire.string "done" ^ Wire.string output ^ Wire.string (Value.encode_bindings objects)
  | Some (Wstate.Wf_failed reason) -> Wire.string "failed" ^ Wire.string reason

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

let enc_result enc = function
  | Ok v -> Wire.bool true ^ enc v
  | Error e -> Wire.bool false ^ Wire.string e

let serve engine =
  let node = Engine.node engine in
  Node.serve node ~service:service_list (fun ~src:_ _body ->
      Wire.(list string) (Engine.instances engine));
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
      Wire.(list (pair string string)) states);
  Node.serve node ~service:service_history (fun ~src:_ body ->
      let iid = Wire.(decode d_string) body in
      Wire.(list (pair (pair int string) string))
        (List.map (fun (at, kind, detail) -> ((at, kind), detail)) (Engine.history engine iid)));
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
      Wire.(list (pair string (pair int (pair int bool)))) rows);
  Node.serve node ~service:service_cancel (fun ~src:_ body ->
      let iid, reason = Wire.(decode (d_pair d_string d_string)) body in
      (* the cancel transaction is asynchronous: a cancel is accepted
         unless [Engine.cancel] refuses it synchronously, and the durable
         state change follows (poll status to confirm) *)
      let accepted = ref (Ok ()) in
      Engine.cancel engine iid ~reason (function Error _ as e -> accepted := e | Ok () -> ());
      enc_result (fun () -> "") !accepted)

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
    call t ~service:service_status ~body:(Wire.string iid) ~dec:(Wire.decode dec_status_opt) k

  let task_states t ~iid k =
    call t ~service:service_tasks ~body:(Wire.string iid)
      ~dec:Wire.(decode (d_list (d_pair d_string d_string)))
      k

  let history t ~iid k =
    call t ~service:service_history ~body:(Wire.string iid)
      ~dec:
        Wire.(
          decode
            (d_list (fun d ->
                 let at, kind = d_pair d_int d_string d in
                 let detail = d_string d in
                 (at, kind, detail))))
      k

  let policy_budgets t ~iid k =
    call t ~service:service_policy ~body:(Wire.string iid)
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
    let dec body =
      let d = Wire.decoder body in
      if Wire.d_bool d then Ok () else Error (Wire.d_string d)
    in
    call t ~service:service_cancel ~body:(Wire.(pair string string) (iid, reason)) ~dec (function
      | Ok (Ok ()) -> k (Ok ())
      | Ok (Error e) -> k (Error e)
      | Error e -> k (Error e))
end
