type t =
  | Single of { rpc : Rpc.t; src : string; dst : string }  (* the classic one-node repository *)
  | Group of { log : Rlog_client.t; cid_prefix : string; mutable cid_seq : int }
      (* replica set behind the consensus log *)

(* Client ids must be unique across every client instance of a run (two
   clients on the same source node must not collide), and deterministic:
   client creation order is part of the seeded setup. *)
let instances = ref 0

let create ~rpc ~src ~repo_node = Single { rpc; src; dst = repo_node }

let create_replicated ~rpc ~src ~replicas () =
  incr instances;
  let log = Rlog_client.create ~rpc ~src ~replicas () in
  Group { log; cid_prefix = Printf.sprintf "%s/%d" src !instances; cid_seq = 0 }

(* One operation over the chosen transport: an RPC to the single node, a
   leader-first read across the replica set, or a log append carrying
   the write with a fresh client id. A reply that does not decode is an
   error, as a failed call is. *)
let call t op q k =
  let answer via = function
    | Ok reply -> k (Repository.reply op reply)
    | Error e -> k (Error (via ^ ": " ^ e))
  in
  let service = Repository.service op in
  match t with
  | Single c ->
    Rpc.call c.rpc ~src:c.src ~dst:c.dst ~service ~body:(Repository.request op q) (answer "rpc")
  | Group g when Repository.is_write op ->
    g.cid_seq <- g.cid_seq + 1;
    let cid = Printf.sprintf "%s#%d" g.cid_prefix g.cid_seq in
    Rlog_client.append g.log ~payload:(Repository.command op ~cid q) (answer "rlog")
  | Group g -> Rlog_client.read g.log ~service ~body:(Repository.request op q) (answer "rpc")

let store t ~name ~source k =
  call t Repository.op_store (name, source) (fun r -> k (Result.join r))

let fetch t ~name ?version k =
  call t Repository.op_fetch (name, version) (fun r -> k (Result.join r))

let list_names t k = call t Repository.op_list () k

let inspect t ~name k = call t Repository.op_inspect name (fun r -> k (Result.join r))

let assign_many t ~pairs k = call t Repository.op_assign_batch pairs k

let owner t ~iid k = call t Repository.op_owner iid k

let placements t k = call t Repository.op_placements () k

let launch t ~engine ~name ?version ~root ~inputs k =
  fetch t ~name ?version (function
    | Error e -> k (Error e)
    | Ok source -> k (Engine.launch engine ~script:source ~root ~inputs))
