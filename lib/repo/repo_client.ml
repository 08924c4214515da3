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

(* a reply [dec] cannot decode is an error, as a failed call is *)
let decoded ~dec ~via k = function
  | Ok reply -> ( match dec reply with v -> k (Ok v) | exception Wire.Malformed m -> k (Error m))
  | Error e -> k (Error (via ^ ": " ^ e))

(* reads: plain RPC to the single node, or leader-first failover across
   the replica set *)
let read t ~service ~body ~dec k =
  let k = decoded ~dec ~via:"rpc" k in
  match t.target with
  | Single dst -> Rpc.call t.rpc ~src:t.src ~dst ~service ~body k
  | Group rc -> Rlog_client.read rc ~service ~body k

(* writes: plain RPC, or a replicated append carrying the command *)
let write t ~service ~body ~cmd ~dec k =
  match t.target with
  | Single dst -> Rpc.call t.rpc ~src:t.src ~dst ~service ~body (decoded ~dec ~via:"rpc" k)
  | Group rc -> Rlog_client.append rc ~payload:cmd (decoded ~dec ~via:"rlog" k)

let store t ~name ~source k =
  let cid = next_cid t in
  write t ~service:Repository.service_store
    ~body:(Wire.(run (b_pair b_string b_string)) (name, source))
    ~cmd:(Repository.cmd_store ~cid ~name ~source)
    ~dec:Wire.(decode (d_result d_int))
    (fun r -> k (Result.join r))

let fetch t ~name ?version k =
  read t ~service:Repository.service_fetch
    ~body:(Wire.(run (b_pair b_string (b_option b_int))) (name, version))
    ~dec:Wire.(decode (d_result d_string))
    (fun r -> k (Result.join r))

let list_names t k =
  read t ~service:Repository.service_list ~body:"" ~dec:Wire.(decode (d_list d_string)) k

let dec_summary d =
  let s_name = Wire.d_string d in
  let s_head = Wire.d_int d in
  let s_roots = Wire.d_list Wire.d_string d in
  let s_task_count = Wire.d_int d in
  let s_warnings = Wire.d_int d in
  { Repository.s_name; s_head; s_roots; s_task_count; s_warnings }

let inspect t ~name k =
  read t ~service:Repository.service_inspect ~body:(Wire.run Wire.b_string name)
    ~dec:Wire.(decode (d_result dec_summary))
    (fun r -> k (Result.join r))

let assign t ~iid ~engine k =
  let cid = next_cid t in
  write t ~service:Repository.service_assign
    ~body:(Wire.(run (b_pair b_string b_string)) (iid, engine))
    ~cmd:(Repository.cmd_assign ~cid ~iid ~engine)
    ~dec:ignore k

let assign_many t ~pairs k =
  let cid = next_cid t in
  write t ~service:Repository.service_assign_batch
    ~body:(Wire.(run (b_list (b_pair b_string b_string))) pairs)
    ~cmd:(Repository.cmd_assign_batch ~cid ~pairs)
    ~dec:ignore k

let owner t ~iid k =
  read t ~service:Repository.service_owner ~body:(Wire.run Wire.b_string iid)
    ~dec:Wire.(decode (d_option d_string))
    k

let placements t k =
  read t ~service:Repository.service_placements ~body:""
    ~dec:Wire.(decode (d_list (d_pair d_string d_string)))
    k

let launch t ~engine ~name ?version ~root ~inputs k =
  fetch t ~name ?version (function
    | Error e -> k (Error e)
    | Ok source -> k (Engine.launch engine ~script:source ~root ~inputs))
