type target =
  | Single of string  (* the classic one-node repository *)
  | Group of Rlog_client.t  (* replica set behind the consensus log *)

type t = {
  rpc : Rpc.t;
  src : string;
  target : target;
  cid_prefix : string;
  mutable cid_seq : int;
}

(* Client ids must be unique across every client instance of a run (two
   clients on the same source node must not collide), and deterministic:
   client creation order is part of the seeded setup. *)
let instances = ref 0

let fresh_prefix src =
  incr instances;
  Printf.sprintf "%s/%d" src !instances

let create ~rpc ~src ~repo_node =
  { rpc; src; target = Single repo_node; cid_prefix = fresh_prefix src; cid_seq = 0 }

let create_replicated ~rpc ~src ~replicas () =
  let rc = Rlog_client.create ~rpc ~src ~replicas () in
  { rpc; src; target = Group rc; cid_prefix = fresh_prefix src; cid_seq = 0 }

let invalidate t =
  match t.target with Single _ -> () | Group rc -> Rlog_client.invalidate rc

let next_cid t =
  t.cid_seq <- t.cid_seq + 1;
  Printf.sprintf "%s#%d" t.cid_prefix t.cid_seq

let dec_result dec body =
  let d = Wire.decoder body in
  if Wire.d_bool d then Ok (dec d) else Error (Wire.d_string d)

(* reads: plain RPC to the single node, or leader-first failover across
   the replica set *)
let read t ~service ~body k =
  match t.target with
  | Single dst -> Rpc.call t.rpc ~src:t.src ~dst ~service ~body k
  | Group rc -> Rlog_client.read rc ~service ~body k

(* writes: plain RPC, or a replicated append carrying the command *)
let write t ~service ~body ~cmd k =
  match t.target with
  | Single dst -> Rpc.call t.rpc ~src:t.src ~dst ~service ~body (fun r ->
        k (match r with Ok reply -> Ok reply | Error e -> Error ("rpc: " ^ e)))
  | Group rc ->
    Rlog_client.append rc ~payload:cmd (fun r ->
        k (match r with Ok reply -> Ok reply | Error e -> Error ("rlog: " ^ e)))

let call_result t ~service ~body ~cmd ~dec k =
  write t ~service ~body ~cmd (function
    | Ok reply -> (
      match dec_result dec reply with v -> k v | exception Wire.Malformed m -> k (Error m))
    | Error e -> k (Error e))

let store t ~name ~source k =
  let cid = next_cid t in
  call_result t ~service:Repository.service_store
    ~body:(Wire.(pair string string) (name, source))
    ~cmd:(Repository.cmd_store ~cid ~name ~source)
    ~dec:Wire.d_int k

let fetch t ~name ?version k =
  read t ~service:Repository.service_fetch
    ~body:(Wire.(pair string (option int)) (name, version))
    (function
      | Ok reply -> (
        match dec_result Wire.d_string reply with
        | v -> k v
        | exception Wire.Malformed m -> k (Error m))
      | Error e -> k (Error ("rpc: " ^ e)))

let list_names t k =
  read t ~service:Repository.service_list ~body:"" (function
    | Ok reply -> (
      match Wire.(decode (d_list d_string)) reply with
      | names -> k (Ok names)
      | exception Wire.Malformed m -> k (Error m))
    | Error e -> k (Error ("rpc: " ^ e)))

let dec_summary d =
  let s_name = Wire.d_string d in
  let s_head = Wire.d_int d in
  let s_roots = Wire.d_list Wire.d_string d in
  let s_task_count = Wire.d_int d in
  let s_warnings = Wire.d_int d in
  { Repository.s_name; s_head; s_roots; s_task_count; s_warnings }

let inspect t ~name k =
  read t ~service:Repository.service_inspect ~body:(Wire.string name) (function
    | Ok reply -> (
      match dec_result dec_summary reply with
      | v -> k v
      | exception Wire.Malformed m -> k (Error m))
    | Error e -> k (Error ("rpc: " ^ e)))

let assign t ~iid ~engine k =
  let cid = next_cid t in
  write t ~service:Repository.service_assign
    ~body:(Wire.(pair string string) (iid, engine))
    ~cmd:(Repository.cmd_assign ~cid ~iid ~engine)
    (function Ok _ -> k (Ok ()) | Error e -> k (Error e))

let assign_many t ~pairs k =
  let cid = next_cid t in
  write t ~service:Repository.service_assign_batch
    ~body:(Wire.(list (pair string string)) pairs)
    ~cmd:(Repository.cmd_assign_batch ~cid ~pairs)
    (function Ok _ -> k (Ok ()) | Error e -> k (Error e))

let owner t ~iid k =
  read t ~service:Repository.service_owner ~body:(Wire.string iid) (function
    | Ok reply -> (
      match Wire.(decode (d_option d_string)) reply with
      | o -> k (Ok o)
      | exception Wire.Malformed m -> k (Error m))
    | Error e -> k (Error ("rpc: " ^ e)))

let placements t k =
  read t ~service:Repository.service_placements ~body:"" (function
    | Ok reply -> (
      match Wire.(decode (d_list (d_pair d_string d_string))) reply with
      | l -> k (Ok l)
      | exception Wire.Malformed m -> k (Error m))
    | Error e -> k (Error ("rpc: " ^ e)))

let launch t ~engine ~name ?version ~root ~inputs k =
  fetch t ~name ?version (function
    | Error e -> k (Error e)
    | Ok source -> k (Engine.launch engine ~script:source ~root ~inputs))
