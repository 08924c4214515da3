type t = {
  node : Node.t;
  mutable store : Kvstore.t;
      (* mutable for replicated backings only: recovery swaps in a fresh
         store and replays the consensus log, so a crash can never leave
         a half-applied command visible *)
}

type version = int

type summary = {
  s_name : string;
  s_head : version;
  s_roots : string list;
  s_task_count : int;
  s_warnings : int;
}

let service_store = "repo.store"

let service_fetch = "repo.fetch"

let service_list = "repo.list"

let service_inspect = "repo.inspect"

let service_assign = "repo.assign"

let service_assign_batch = "repo.assign_batch"

let service_owner = "repo.owner"

let service_placements = "repo.placements"

let internal_store t = t.store

let key_head name = "head:" ^ name

let key_version name version = Printf.sprintf "script:%s:%d" name version

let key_place iid = "place:" ^ iid

(* A corrupt head record means the store itself is damaged — masking it
   as "no script" would silently shadow every stored version, so refuse
   loudly instead. *)
let head t ~name =
  match Kvstore.get t.store (key_head name) with
  | None -> None
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> Some n
    | None ->
      invalid_arg
        (Printf.sprintf "Repository.head: corrupt head record for %s: %S" name v))

let validate_source source =
  match Frontend.load source with
  | Ok ast -> Ok ast
  | Error e -> Error (Frontend.error_to_string e)

let store t ~name ~source =
  match validate_source source with
  | Error e -> Error e
  | Ok _ ->
    let next = match head t ~name with Some v -> v + 1 | None -> 1 in
    Kvstore.put t.store (key_version name next) source;
    Kvstore.put t.store (key_head name) (string_of_int next);
    Ok next

let fetch t ~name ?version () =
  let version =
    match version with
    | Some v -> Some v
    | None -> head t ~name
  in
  match version with
  | None -> Error ("no script named " ^ name)
  | Some v -> (
    match Kvstore.get t.store (key_version name v) with
    | Some source -> Ok source
    | None -> Error (Printf.sprintf "no version %d of script %s" v name))

let list_names t =
  Kvstore.keys t.store
  |> List.filter_map (fun key ->
         if String.length key > 5 && String.sub key 0 5 = "head:" then
           Some (String.sub key 5 (String.length key - 5))
         else None)

(* --- instance placement directory (cluster layer) --- *)

let assign t ~iid ~engine = Kvstore.put t.store (key_place iid) engine

let assign_many t ~pairs = List.iter (fun (iid, engine) -> assign t ~iid ~engine) pairs

let owner t ~iid = Kvstore.get t.store (key_place iid)

let placements t =
  Kvstore.keys t.store
  |> List.filter_map (fun key ->
         if String.length key > 6 && String.sub key 0 6 = "place:" then
           let iid = String.sub key 6 (String.length key - 6) in
           Option.map (fun engine -> (iid, engine)) (Kvstore.get t.store key)
         else None)
  |> List.sort compare

let history t ~name =
  match head t ~name with
  | None -> []
  | Some h -> List.init h (fun i -> i + 1)

let inspect t ~name =
  match fetch t ~name () with
  | Error e -> Error e
  | Ok source -> (
    match validate_source source with
    | Error e -> Error e (* cannot happen for stored scripts *)
    | Ok ast ->
      let roots = Frontend.roots ast in
      let task_count =
        List.fold_left
          (fun acc root ->
            match Schema.of_script ast ~root with
            | Ok task -> max acc (Schema.task_count task)
            | Error _ -> acc)
          0 roots
      in
      let warnings =
        List.length
          (List.filter (fun (i : Validate.issue) -> i.Validate.severity = Validate.Warning)
             (Validate.check ast))
      in
      Ok
        {
          s_name = name;
          s_head = (match head t ~name with Some h -> h | None -> 0);
          s_roots = roots;
          s_task_count = task_count;
          s_warnings = warnings;
        })

(* --- wire handlers --- *)

(* a store's reply: the new version, or why the script was refused *)
let enc_stored = Wire.(run (b_result b_int))

let handle_store t ~src:_ body =
  let name, source = Wire.(decode (d_pair d_string d_string)) body in
  enc_stored (store t ~name ~source)

let handle_fetch t ~src:_ body =
  let name, version = Wire.(decode (d_pair d_string (d_option d_int))) body in
  Wire.(run (b_result b_string)) (fetch t ~name ?version ())

let handle_list t ~src:_ _body = Wire.(run (b_list b_string)) (list_names t)

let b_summary buf s =
  Wire.b_string buf s.s_name;
  Wire.b_int buf s.s_head;
  Wire.(b_list b_string) buf s.s_roots;
  Wire.b_int buf s.s_task_count;
  Wire.b_int buf s.s_warnings

let handle_inspect t ~src:_ body =
  let name = Wire.(decode d_string) body in
  Wire.(run (b_result b_summary)) (inspect t ~name)

let handle_assign t ~src:_ body =
  let iid, engine = Wire.(decode (d_pair d_string d_string)) body in
  assign t ~iid ~engine;
  Wire.(run b_bool) true

let handle_assign_batch t ~src:_ body =
  let pairs = Wire.(decode (d_list (d_pair d_string d_string))) body in
  assign_many t ~pairs;
  Wire.(run b_int) (List.length pairs)

let handle_owner t ~src:_ body =
  let iid = Wire.(decode d_string) body in
  Wire.(run (b_option b_string)) (owner t ~iid)

let handle_placements t ~src:_ _body =
  Wire.(run (b_list (b_pair b_string b_string))) (placements t)

(* --- replicated command log (consensus backend) ---

   Every mutation becomes one opaque command string in the replicated
   log; [apply_command] decodes and executes it deterministically, so
   identical logs yield identical repositories on every replica. Each
   command carries a client-chosen id: a retry that lands on a new
   leader after a failover may append a second copy, and the dedup row
   makes the second application return the first reply instead of
   re-executing (exactly-once above at-least-once). *)

let key_cid cid = "cid:" ^ cid

let cmd_store ~cid ~name ~source =
  Wire.(run (b_pair b_string (b_pair b_string (b_pair b_string b_string))))
    ("store", (cid, (name, source)))

let cmd_assign ~cid ~iid ~engine =
  Wire.(run (b_pair b_string (b_pair b_string (b_pair b_string b_string))))
    ("assign", (cid, (iid, engine)))

let cmd_assign_batch ~cid ~pairs =
  Wire.(run (b_pair b_string (b_pair b_string (b_list (b_pair b_string b_string)))))
    ("assign_batch", (cid, pairs))

type command =
  | C_store of (string * string)
  | C_assign of (string * string)
  | C_assign_batch of (string * string) list
  | C_unknown of string

(* Decode the whole command before touching the store: the log carries
   whatever bytes a client appended, and a payload that raised here
   would raise again on every replica and on every replay. *)
let decode_command cmd =
  let body tag d =
    match tag with
    | "store" -> C_store (Wire.(d_pair d_string d_string) d)
    | "assign" -> C_assign (Wire.(d_pair d_string d_string) d)
    | "assign_batch" -> C_assign_batch (Wire.(d_list (d_pair d_string d_string)) d)
    | other -> C_unknown other
  in
  match
    Wire.decode
      (fun d ->
        let tag = Wire.d_string d in
        let cid = Wire.d_string d in
        (cid, body tag d))
      cmd
  with
  | decoded -> Ok decoded
  | exception Wire.Malformed reason -> Error reason

let apply_command t cmd =
  match decode_command cmd with
  | Error reason ->
    (* the reply depends on the bytes alone, so every replica answers
       alike; nothing is written, not even the dedup row *)
    enc_stored (Error ("malformed repository command: " ^ reason))
  | Ok (cid, command) -> (
    match Kvstore.get t.store (key_cid cid) with
    | Some cached -> cached
    | None ->
      let reply =
        match command with
        | C_store (name, source) -> enc_stored (store t ~name ~source)
        | C_assign (iid, engine) ->
          assign t ~iid ~engine;
          Wire.(run b_bool) true
        | C_assign_batch pairs ->
          assign_many t ~pairs;
          Wire.(run b_int) (List.length pairs)
        | C_unknown other -> enc_stored (Error ("unknown repository command: " ^ other))
      in
      Kvstore.put t.store (key_cid cid) reply;
      reply)

let install_read_services t =
  let node = t.node in
  Node.serve node ~service:service_fetch (handle_fetch t);
  Node.serve node ~service:service_list (handle_list t);
  Node.serve node ~service:service_inspect (handle_inspect t);
  Node.serve node ~service:service_owner (handle_owner t);
  Node.serve node ~service:service_placements (handle_placements t)

let create_backing ~node = { node; store = Kvstore.create ~name:("repo@" ^ Node.id node) }

let reset_state t = t.store <- Kvstore.create ~name:("repo@" ^ Node.id t.node)

let create ~rpc ~node =
  ignore rpc;
  let t = create_backing ~node in
  Node.serve node ~service:service_store (handle_store t);
  Node.serve node ~service:service_assign (handle_assign t);
  Node.serve node ~service:service_assign_batch (handle_assign_batch t);
  install_read_services t;
  Node.on_crash node (fun () -> Kvstore.crash t.store);
  Node.on_recover node (fun () -> Kvstore.recover t.store);
  t
