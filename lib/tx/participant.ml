type prep = { coordinator : string; writes : Txrecord.write list }

type t = {
  node : Node.t;
  rpc : Rpc.t;
  sim : Sim.t;
  store : Kvstore.t;
  plog : Txrecord.precord Wal.t;
  locks : Lock.t;
  prepared : (string, prep) Hashtbl.t;  (* undecided, volatile *)
  decided : (string, [ `Committed | `Aborted ]) Hashtbl.t;  (* 2PC: volatile cache of the log *)
}

let poll_period = Sim.ms 50

let node_id t = Node.id t.node

let store t = t.store

let log_length t = Wal.length t.plog

let log t = Wal.records t.plog

let apply_write t (k, v) =
  match v with Some value -> Kvstore.put t.store k value | None -> Kvstore.delete t.store k

let apply_writes t writes = List.iter (apply_write t) writes

let decide_commit t txid =
  match Hashtbl.find_opt t.prepared txid with
  | None -> () (* duplicate decision *)
  | Some prep ->
    apply_writes t prep.writes;
    Wal.append t.plog (Txrecord.P_committed txid);
    Hashtbl.remove t.prepared txid;
    Hashtbl.replace t.decided txid `Committed;
    Lock.release_all t.locks ~txid

let decide_abort t txid =
  match Hashtbl.find_opt t.prepared txid with
  | None -> ()
  | Some _ ->
    Wal.append t.plog (Txrecord.P_aborted txid);
    Hashtbl.remove t.prepared txid;
    Hashtbl.replace t.decided txid `Aborted;
    Lock.release_all t.locks ~txid

(* Presumed-abort termination protocol: a recovered participant polls
   the coordinator about each undecided prepared transaction. *)
let rec poll_status t txid =
  match Hashtbl.find_opt t.prepared txid with
  | None -> ()
  | Some prep ->
    let handle_reply reply =
      match Result.map Txrecord.dec_status_reply reply with
      | Ok `Committed -> decide_commit t txid
      | Ok `Aborted -> decide_abort t txid
      | Ok `Pending | Error _ | (exception Wire.Malformed _) -> schedule_poll t txid
    in
    Rpc.call t.rpc ~src:(node_id t) ~dst:prep.coordinator ~service:Txrecord.service_status
      ~body:(Txrecord.enc_txid txid) handle_reply

and schedule_poll t txid =
  let inc = Node.incarnation t.node in
  ignore
    (Sim.schedule t.sim ~delay:poll_period (fun () ->
         if Node.incarnation t.node = inc then poll_status t txid))

let prepare_locks t ~txid ~writes =
  List.for_all (fun (key, _) -> Lock.write t.locks ~key ~txid = Lock.Granted) writes

let handle_prepare t ~src:_ body =
  let txid, coordinator, writes = Txrecord.dec_prepare_req body in
  match Hashtbl.find_opt t.decided txid with
  | Some `Committed -> Txrecord.enc_vote true
  | Some `Aborted -> Txrecord.enc_vote false
  | None ->
    if Hashtbl.mem t.prepared txid then Txrecord.enc_vote true (* duplicate prepare *)
    else if prepare_locks t ~txid ~writes then begin
      Wal.append t.plog (Txrecord.P_prepared { txid; coordinator; writes });
      Hashtbl.replace t.prepared txid { coordinator; writes };
      (* If the decision does not arrive (coordinator crashed), the
         termination protocol below asks for it. *)
      schedule_poll t txid;
      Txrecord.enc_vote true
    end
    else begin
      (* vote no: drop the locks taken before the conflict *)
      Lock.release_all t.locks ~txid;
      Txrecord.enc_vote false
    end

(* The one-phase decision, for the co-located coordinator: this node is
   the transaction's only participant, so prepare and commit collapse
   into one step here — check that every write lock would be granted
   and apply. No lock is taken, since nothing else runs within this
   call. Nothing is logged and no decision cached: a direct call
   happens once per txid, so there is no repeat to recognise. *)
let commit_local t ~txid ~writes =
  let vote = List.for_all (fun (key, _) -> Lock.write_free t.locks ~key ~txid) writes in
  if vote then apply_writes t writes;
  vote

let handle_commit t ~src:_ body =
  decide_commit t (Txrecord.dec_txid body);
  "ack"

let handle_abort t ~src:_ body =
  decide_abort t (Txrecord.dec_txid body);
  "ack"

let on_crash t () =
  Kvstore.crash t.store;
  Lock.reset t.locks;
  Hashtbl.reset t.prepared;
  Hashtbl.reset t.decided

let replay_record t = function
  | Txrecord.P_prepared { txid; coordinator; writes } ->
    Hashtbl.replace t.prepared txid { coordinator; writes }
  | Txrecord.P_committed txid ->
    Hashtbl.remove t.prepared txid;
    Hashtbl.replace t.decided txid `Committed
  | Txrecord.P_aborted txid ->
    Hashtbl.remove t.prepared txid;
    Hashtbl.replace t.decided txid `Aborted

let on_recover t () =
  Kvstore.recover t.store;
  List.iter (replay_record t) (Wal.records t.plog);
  let relock txid prep =
    List.iter (fun (k, _) -> ignore (Lock.write t.locks ~key:k ~txid)) prep.writes;
    schedule_poll t txid
  in
  Hashtbl.iter relock t.prepared

let create ~rpc ~node =
  let id = Node.id node in
  let t =
    {
      node;
      rpc;
      sim = Network.sim (Rpc.network rpc);
      store = Kvstore.create ~name:("objects@" ^ id);
      plog = Wal.create ~name:("txlog@" ^ id);
      locks = Lock.create ();
      prepared = Hashtbl.create 16;
      decided = Hashtbl.create 16;
    }
  in
  Node.serve node ~service:Txrecord.service_prepare (handle_prepare t);
  Node.serve node ~service:Txrecord.service_commit (handle_commit t);
  Node.serve node ~service:Txrecord.service_abort (handle_abort t);
  Node.on_crash node (on_crash t);
  Node.on_recover node (on_recover t);
  t

let committed_value t ~key = Kvstore.get t.store key

let committed_keys t = Kvstore.keys t.store

let prepared_txids t =
  List.sort String.compare (Hashtbl.fold (fun txid _ acc -> txid :: acc) t.prepared [])

let locks_held t = Lock.held_total t.locks

let decided_count t = Hashtbl.length t.decided

let checkpoint t =
  Kvstore.checkpoint t.store;
  let live =
    List.filter
      (function
        | Txrecord.P_prepared { txid; _ } -> Hashtbl.mem t.prepared txid
        | Txrecord.P_committed _ | Txrecord.P_aborted _ -> false)
      (Wal.records t.plog)
  in
  Wal.rewrite t.plog live
