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

let internal_store t = t.store

let head_prefix = "head:"

let place_prefix = "place:"

let key_head name = head_prefix ^ name

let key_version name version = Printf.sprintf "script:%s:%d" name version

let key_place iid = place_prefix ^ iid

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

(* [f key rest] for each key under [prefix], in key order, where [rest]
   follows the prefix; the bare prefix names nothing *)
let scan t ~prefix f =
  let n = String.length prefix in
  List.filter_map
    (fun key ->
      if String.length key > n then f key (String.sub key n (String.length key - n)) else None)
    (Kvstore.keys_with_prefix t.store ~prefix)

let list_names t = scan t ~prefix:head_prefix (fun _ name -> Some name)

(* --- instance placement directory (cluster layer) --- *)

let assign t ~iid ~engine = Kvstore.put t.store (key_place iid) engine

let owner t ~iid = Kvstore.get t.store (key_place iid)

let placements t =
  scan t ~prefix:place_prefix (fun key iid ->
      Option.map (fun engine -> (iid, engine)) (Kvstore.get t.store key))

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

(* --- the protocol ---

   One record per operation: its name, the codecs of its request and of
   its reply, and what it does. The service is ["repo." ^ name]; a
   write's replicated command is its name, a client id and the request
   body, in that order. A write runs through [respond] whether it
   arrives on this node's service or as a committed log entry. *)

type 'a codec = 'a Wire.embed * (Wire.decoder -> 'a)

type ('q, 'r) op = {
  name : string;
  service : string;
  req : 'q codec;
  rsp : 'r codec;
  exec : t -> 'q -> 'r;
}

let op name ~req ~rsp exec = { name; service = "repo." ^ name; req; rsp; exec }

let string_c = Wire.(b_string, d_string)

let pairs_c = Wire.(b_list (b_pair b_string b_string), d_list (d_pair d_string d_string))

(* an empty request body *)
let unit_c = ((fun _ () -> ()), fun _ -> ())

let result_c (b, d) = Wire.(b_result b, d_result d)

let b_summary buf s =
  Wire.b_string buf s.s_name;
  Wire.b_int buf s.s_head;
  Wire.(b_list b_string) buf s.s_roots;
  Wire.b_int buf s.s_task_count;
  Wire.b_int buf s.s_warnings

let d_summary d =
  let s_name = Wire.d_string d in
  let s_head = Wire.d_int d in
  let s_roots = Wire.(d_list d_string) d in
  let s_task_count = Wire.d_int d in
  let s_warnings = Wire.d_int d in
  { s_name; s_head; s_roots; s_task_count; s_warnings }

let op_store =
  op "store"
    ~req:Wire.(b_pair b_string b_string, d_pair d_string d_string)
    ~rsp:(result_c Wire.(b_int, d_int))
    (fun t (name, source) -> store t ~name ~source)

let op_assign_batch =
  op "assign_batch" ~req:pairs_c ~rsp:Wire.(b_int, d_int) (fun t pairs ->
      List.iter (fun (iid, engine) -> assign t ~iid ~engine) pairs;
      List.length pairs)

let op_fetch =
  op "fetch"
    ~req:Wire.(b_pair b_string (b_option b_int), d_pair d_string (d_option d_int))
    ~rsp:(result_c string_c)
    (fun t (name, version) -> fetch t ~name ?version ())

let op_list = op "list" ~req:unit_c ~rsp:Wire.(b_list b_string, d_list d_string) (fun t () -> list_names t)

let op_inspect =
  op "inspect" ~req:string_c ~rsp:(result_c (b_summary, d_summary)) (fun t name -> inspect t ~name)

let op_owner =
  op "owner" ~req:string_c ~rsp:Wire.(b_option b_string, d_option d_string) (fun t iid -> owner t ~iid)

let op_placements = op "placements" ~req:unit_c ~rsp:pairs_c (fun t () -> placements t)

let service op = op.service

let request op q = Wire.run (fst op.req) q

let reply op body =
  match Wire.decode (snd op.rsp) body with
  | v -> Ok v
  | exception Wire.Malformed reason -> Error reason

let respond t op q = Wire.run (fst op.rsp) (op.exec t q)

let serve t op =
  Node.serve t.node ~service:op.service (fun ~src:_ body ->
      respond t op (Wire.decode (snd op.req) body))

(* --- replicated command log (consensus backend) ---

   Every write becomes one opaque command string in the replicated
   log; [apply_command] decodes and executes it deterministically, so
   identical logs yield identical repositories on every replica. Each
   command carries a client-chosen id: a retry that lands on a new
   leader after a failover may append a second copy, and the dedup row
   makes the second application return the first reply instead of
   re-executing (exactly-once above at-least-once). *)

let key_cid cid = "cid:" ^ cid

(* each write's command decoder: the request, bound to its execution *)
let writes =
  let decoder op d =
    let q = snd op.req d in
    fun t -> respond t op q
  in
  [ (op_store.name, decoder op_store); (op_assign_batch.name, decoder op_assign_batch) ]

let is_write op = List.mem_assoc op.name writes

let command op ~cid q =
  Wire.run
    (fun buf q ->
      Wire.b_string buf op.name;
      Wire.b_string buf cid;
      fst op.req buf q)
    q

(* the error arm of a write's reply *)
let error_reply reason = Wire.(run (b_result b_int)) (Error reason)

(* Decode the whole command before touching the store: the log carries
   whatever bytes a client appended, and a payload that raised here
   would raise again on every replica and on every replay. *)
let decode_command d =
  let tag = Wire.d_string d in
  let cid = Wire.d_string d in
  match List.assoc_opt tag writes with
  | Some decoder -> (cid, decoder d)
  | None -> (cid, fun _ -> error_reply ("unknown repository command: " ^ tag))

let apply_command t cmd =
  match Wire.decode decode_command cmd with
  | exception Wire.Malformed reason ->
    (* the reply depends on the bytes alone, so every replica answers
       alike; nothing is written, not even the dedup row *)
    error_reply ("malformed repository command: " ^ reason)
  | cid, run -> (
    match Kvstore.get t.store (key_cid cid) with
    | Some cached -> cached
    | None ->
      let reply = run t in
      Kvstore.put t.store (key_cid cid) reply;
      reply)

let install_read_services t =
  serve t op_fetch;
  serve t op_list;
  serve t op_inspect;
  serve t op_owner;
  serve t op_placements

let create_backing ~node = { node; store = Kvstore.create ~name:("repo@" ^ Node.id node) }

let reset_state t = t.store <- Kvstore.create ~name:("repo@" ^ Node.id t.node)

let create ~node =
  let t = create_backing ~node in
  serve t op_store;
  serve t op_assign_batch;
  install_read_services t;
  Node.on_crash node (fun () -> Kvstore.crash t.store);
  Node.on_recover node (fun () -> Kvstore.recover t.store);
  t
