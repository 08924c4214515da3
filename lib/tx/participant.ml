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
  (match Hashtbl.find_opt t.prepared txid with
  | None -> ()
  | Some _ ->
    Wal.append t.plog (Txrecord.P_aborted txid);
    Hashtbl.remove t.prepared txid;
    Hashtbl.replace t.decided txid `Aborted);
  (* An unprepared transaction may still hold read locks here. *)
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

let handle_read t ~src:_ body =
  let txid, key = Txrecord.dec_read_req body in
  match Lock.read t.locks ~key ~txid with
  | Lock.Conflict holder -> Txrecord.enc_read_reply (Error ("conflict with " ^ holder))
  | Lock.Granted -> Txrecord.enc_read_reply (Ok (Kvstore.get t.store key))

let prepare_locks t ~txid ~read_keys ~writes =
  let read_ok key = Lock.holds_read t.locks ~key ~txid in
  let acquire_write key = Lock.write t.locks ~key ~txid = Lock.Granted in
  List.for_all read_ok read_keys && List.for_all (fun (k, _) -> acquire_write k) writes

let handle_prepare t ~src:_ body =
  let txid, coordinator, read_keys, writes = Txrecord.dec_prepare_req body in
  match Hashtbl.find_opt t.decided txid with
  | Some `Committed -> Txrecord.enc_vote true
  | Some `Aborted -> Txrecord.enc_vote false
  | None ->
    if Hashtbl.mem t.prepared txid then Txrecord.enc_vote true (* duplicate prepare *)
    else if prepare_locks t ~txid ~read_keys ~writes then begin
      Wal.append t.plog (Txrecord.P_prepared { txid; coordinator; writes });
      Hashtbl.replace t.prepared txid { coordinator; writes };
      (* If the decision does not arrive (coordinator crashed), the
         termination protocol below asks for it. *)
      schedule_poll t txid;
      Txrecord.enc_vote true
    end
    else begin
      (* vote no: this transaction is dead here; drop whatever it held *)
      Lock.release_all t.locks ~txid;
      Txrecord.enc_vote false
    end

(* The one-phase decision, for the co-located coordinator: this node is
   the transaction's only participant, so prepare and commit collapse
   into one step here — validate the read locks, check that every write
   lock would be granted (it is not taken: it would be released within
   this call), apply, and release whatever the transaction held. No
   record is logged and no decision cached: a direct call happens once
   per txid, so there is no repeat to recognise. *)
let commit_local t ~txid ~read_keys ~writes =
  let read_ok key = Lock.holds_read t.locks ~key ~txid in
  let write_ok (key, _) = Lock.write_free t.locks ~key ~txid in
  let vote = List.for_all read_ok read_keys && List.for_all write_ok writes in
  if vote then apply_writes t writes;
  Lock.release_all t.locks ~txid;
  vote

(* Read-only elision: the participant holds no writes for this
   transaction, so its vote is pure validation — do the read locks still
   stand? Either way it releases and forgets the transaction in phase 1;
   the coordinator never includes it in the commit fan-out. *)
let handle_prepare_ro t ~src:_ body =
  let txid, read_keys = Txrecord.dec_prepare_ro body in
  let ok = List.for_all (fun key -> Lock.holds_read t.locks ~key ~txid) read_keys in
  Lock.release_all t.locks ~txid;
  Txrecord.enc_vote ok

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
  Node.serve node ~service:Txrecord.service_read (handle_read t);
  Node.serve node ~service:Txrecord.service_prepare (handle_prepare t);
  Node.serve node ~service:Txrecord.service_commit (handle_commit t);
  Node.serve node ~service:Txrecord.service_prepare_ro (handle_prepare_ro t);
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
