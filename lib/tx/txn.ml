type error =
  [ `Conflict of string
  | `Timeout
  | `Aborted of string ]

type 'a io = (('a, error) result -> unit) -> unit

let return v k = k (Ok v)

let fail e k = k (Error e)

let ( let* ) (m : 'a io) (f : 'a -> 'b io) : 'b io =
 fun k -> m (function Ok v -> f v k | Error e -> k (Error e))

let pp_error ppf = function
  | `Conflict holder -> Format.fprintf ppf "conflict(%s)" holder
  | `Timeout -> Format.fprintf ppf "timeout"
  | `Aborted reason -> Format.fprintf ppf "aborted(%s)" reason

let error_to_string e = Format.asprintf "%a" pp_error e

module String_map = Map.Make (String)
module String_set = Set.Make (String)

type manager = {
  rpc : Rpc.t;
  node : Node.t;
  participant : Participant.t;  (* the one on [node]: the local one-phase lane *)
  sim : Sim.t;
  rng : Rng.t;
  clog : Txrecord.crecord Wal.t;
  committed : (string, string list) Hashtbl.t;  (* decision made, commit phase maybe unfinished *)
  finished : (string, unit) Hashtbl.t;  (* C_done seen *)
  active : (string, unit) Hashtbl.t;  (* undecided top-level txns started here *)
  mutable incarnation : int;
      (* durable, one [C_incarnation] record per life: the part of each
         txid that keeps it unique across crashes *)
  mutable seq : int;
}

type t = {
  mgr : manager;
  id : string;
  parent : t option;
  root : t option;  (* None when this is the root *)
  mutable writes : string option String_map.t String_map.t;
      (* node -> key -> value, None = delete *)
  mutable read_keys : String_set.t String_map.t;  (* root only: node -> keys read-locked *)
  mutable finished_child : bool;
}

let manager_node mgr = Node.id mgr.node

let txid t = t.id

let rec root t = match t.root with None -> t | Some r -> root r

(* --- coordinator-side commit machinery --- *)

let commit_retry_base = Sim.ms 20

let commit_retry_cap = Sim.ms 500

(* Push the commit decision to every participant until each one acks.
   Retries survive participant crashes; [on_done] fires once all acked. *)
let push_commits mgr txid participants on_done =
  let inc = Node.incarnation mgr.node in
  let remaining = ref (List.length participants) in
  if !remaining = 0 then on_done ()
  else begin
    let finish_one () =
      decr remaining;
      if !remaining = 0 then begin
        if not (Hashtbl.mem mgr.finished txid) then begin
          Wal.append mgr.clog (Txrecord.C_done txid);
          Hashtbl.replace mgr.finished txid ()
        end;
        on_done ()
      end
    in
    let rec push node delay =
      (* A coordinator crash obsoletes this loop: recovery starts a fresh
         one for every undecided commit, so stale loops must die. *)
      if Node.incarnation mgr.node = inc then begin
        let handle = function
          | Ok _ -> finish_one ()
          | Error _ ->
            let delay = min commit_retry_cap (delay * 2) in
            let jitter = Rng.int mgr.rng (max 1 (delay / 4)) in
            ignore (Sim.schedule mgr.sim ~delay:(delay + jitter) (fun () -> push node delay))
        in
        Rpc.call mgr.rpc ~src:(manager_node mgr) ~dst:node ~service:Txrecord.service_commit
          ~body:(Txrecord.enc_txid txid) handle
      end
    in
    List.iter (fun node -> push node commit_retry_base) participants
  end

let handle_status mgr ~src:_ body =
  let txid = Txrecord.dec_txid body in
  let status =
    if Hashtbl.mem mgr.committed txid then `Committed
    else if Hashtbl.mem mgr.active txid then `Pending
    else `Aborted
  in
  Txrecord.enc_status_reply status

let replay_crecord mgr = function
  | Txrecord.C_incarnation -> mgr.incarnation <- mgr.incarnation + 1
  | Txrecord.C_committed { txid; participants } -> Hashtbl.replace mgr.committed txid participants
  | Txrecord.C_done txid -> Hashtbl.replace mgr.finished txid ()

let on_manager_recover mgr () =
  Hashtbl.reset mgr.committed;
  Hashtbl.reset mgr.finished;
  Hashtbl.reset mgr.active;
  mgr.incarnation <- 0;
  List.iter (replay_crecord mgr) (Wal.records mgr.clog);
  Wal.append mgr.clog Txrecord.C_incarnation;
  mgr.incarnation <- mgr.incarnation + 1;
  mgr.seq <- 0;
  let resume txid participants =
    if not (Hashtbl.mem mgr.finished txid) then push_commits mgr txid participants (fun () -> ())
  in
  Hashtbl.iter resume mgr.committed

let manager ~rpc ~node ~participant =
  if Participant.node_id participant <> Node.id node then
    invalid_arg "Txn.manager: the participant lives on another node";
  let sim = Network.sim (Rpc.network rpc) in
  let mgr =
    {
      rpc;
      node;
      participant;
      sim;
      rng = Rng.split (Sim.rng sim);
      clog = Wal.create ~name:("txnlog@" ^ Node.id node);
      committed = Hashtbl.create 32;
      finished = Hashtbl.create 32;
      active = Hashtbl.create 16;
      incarnation = 1;
      seq = 0;
    }
  in
  Wal.append mgr.clog Txrecord.C_incarnation;
  Node.serve node ~service:Txrecord.service_status (handle_status mgr);
  Node.on_crash node (fun () ->
      Hashtbl.reset mgr.active;
      Hashtbl.reset mgr.committed;
      Hashtbl.reset mgr.finished);
  Node.on_recover node (on_manager_recover mgr);
  mgr

(* --- client API --- *)

let begin_ mgr =
  mgr.seq <- mgr.seq + 1;
  let id =
    String.concat ":"
      [ "t"; manager_node mgr; string_of_int mgr.incarnation; string_of_int mgr.seq ]
  in
  Hashtbl.replace mgr.active id ();
  {
    mgr;
    id;
    parent = None;
    root = None;
    writes = String_map.empty;
    read_keys = String_map.empty;
    finished_child = false;
  }

let begin_child parent =
  let r = root parent in
  {
    mgr = parent.mgr;
    id = parent.id;
    parent = Some parent;
    root = Some r;
    writes = String_map.empty;
    read_keys = String_map.empty;
    finished_child = false;
  }

(* Some (Some v) = buffered write, Some None = buffered delete,
   None = not buffered here or above. *)
let rec buffered t ~node ~key =
  match Option.bind (String_map.find_opt node t.writes) (String_map.find_opt key) with
  | Some v -> Some v
  | None -> ( match t.parent with Some p -> buffered p ~node ~key | None -> None)

let add_read_lock r ~node ~key =
  let keys = Option.value (String_map.find_opt node r.read_keys) ~default:String_set.empty in
  r.read_keys <- String_map.add node (String_set.add key keys) r.read_keys

let buffer t ~node ~key value =
  let keys = Option.value (String_map.find_opt node t.writes) ~default:String_map.empty in
  t.writes <- String_map.add node (String_map.add key value keys) t.writes

let read t ~node ~key : string option io =
 fun k ->
  match buffered t ~node ~key with
  | Some v -> k (Ok v)
  | None ->
    let r = root t in
    let mgr = t.mgr in
    let handle reply =
      match Result.map Txrecord.dec_read_reply reply with
      | Ok (Ok v) ->
        add_read_lock r ~node ~key;
        k (Ok v)
      | Ok (Error reason) -> k (Error (`Conflict reason))
      | Error _ | (exception Wire.Malformed _) -> k (Error `Timeout)
    in
    Rpc.call mgr.rpc ~src:(manager_node mgr) ~dst:node ~service:Txrecord.service_read
      ~body:(Txrecord.enc_read_req (t.id, key))
      handle

let write t ~node ~key ~value = buffer t ~node ~key (Some value)

let delete t ~node ~key = buffer t ~node ~key None

(* The root's read locks and writes per participant node, each list in
   descending key order: participants log and apply writes in the order
   given, so this order fixes the bytes of their WAL records. *)
let participants_of_root r =
  let writes_of keys = String_map.fold (fun key value acc -> (key, value) :: acc) keys [] in
  let reads_of keys = String_set.fold List.cons keys [] in
  let with_writes = String_map.map (fun keys -> ([], writes_of keys)) r.writes in
  String_map.fold
    (fun node keys acc ->
      let writes = match String_map.find_opt node acc with Some (_, w) -> w | None -> [] in
      String_map.add node (reads_of keys, writes) acc)
    r.read_keys with_writes

let abort_at_participants mgr txid nodes =
  let tell node =
    Rpc.call mgr.rpc ~src:(manager_node mgr) ~dst:node ~service:Txrecord.service_abort
      ~body:(Txrecord.enc_txid txid) (fun _ -> ())
  in
  List.iter tell nodes

(* Top-level commit, with two fast lanes in front of classic 2PC:

   - read-only transaction: every participant validates-and-releases in
     a single round ([tx.prepare-ro]); nothing is logged anywhere.
   - local one-phase commit: the only participant is the coordinator's
     own live node, with writes. The writes go straight to
     {!Participant.commit_local} as they are (no RPC, no encoding, no
     duplicate memory: a txid reaches it once) and only the completion
     is deferred to a simulation event, preserving the asynchronous
     callback contract.
   - 2PC with read-only elision: every other shape, a single writer on
     another node included. Participants holding only read locks vote
     via [tx.prepare-ro] and are excluded from the decision record and
     the commit fan-out.

   All lanes presume abort: only a [C_committed] record (written by the
   2PC lane alone) obligates recovery to push commits; everything else
   aborts by default. *)
let commit_top (t : t) : unit io =
 fun k ->
  let mgr = t.mgr in
  let by_node = participants_of_root t in
  let bindings = String_map.bindings by_node in
  let all_nodes = List.map fst bindings in
  let ro, rw = List.partition (fun (_, (_, writes)) -> writes = []) bindings in
  let ro_nodes = List.map fst ro in
  let rw_nodes = List.map fst rw in
  let resolve committed =
    Hashtbl.remove mgr.active t.id;
    Sim.emit mgr.sim ~src:(manager_node mgr)
      (Event.Txn_resolved { txid = t.id; committed })
  in
  let elide_ro () =
    List.iter
      (fun node ->
        Sim.emit mgr.sim ~src:(manager_node mgr)
          (Event.Txn_readonly_elided { txid = t.id; node }))
      ro_nodes
  in
  (* [participants] = write participants still owed a phase-2 commit
     message; [] when the decision needs no record and no fan-out. *)
  let conclude_commit ~participants () =
    if participants <> [] then begin
      Wal.append mgr.clog (Txrecord.C_committed { txid = t.id; participants });
      Hashtbl.replace mgr.committed t.id participants
    end;
    resolve true;
    elide_ro ();
    if participants = [] then k (Ok ())
    else push_commits mgr t.id participants (fun () -> k (Ok ()))
  in
  let conclude_abort ?(notify = all_nodes) e =
    resolve false;
    abort_at_participants mgr t.id notify;
    k (Error e)
  in
  match (rw, ro) with
  | [], [] ->
    resolve true;
    k (Ok ())
  | [ (node, (read_keys, writes)) ], [] when node = manager_node mgr && Node.up mgr.node ->
    (* local one-phase lane: decide synchronously against the co-hosted
       participant, defer only the continuation. The node's incarnation
       kills the continuation if the node crashes in between — the commit
       itself is already durable, exactly as if the reply were lost.
       [t.id] is fresh from [begin_] and this is its only commit, which
       is the once-per-txid contract of [commit_local]. Only a down
       store refuses here; any other exception is a bug and propagates. *)
    let vote =
      try Participant.commit_local mgr.participant ~txid:t.id ~read_keys ~writes
      with Kvstore.Unavailable _ -> false
    in
    let inc = Node.incarnation mgr.node in
    ignore
      (Sim.schedule mgr.sim ~delay:0 (fun () ->
           if Node.incarnation mgr.node = inc then
             if vote then begin
               Sim.emit mgr.sim ~src:(manager_node mgr) (Event.Txn_one_phase { txid = t.id });
               conclude_commit ~participants:[] ()
             end
             else
               (* a refused one-phase commit already released everything
                  at the participant; no abort message needed *)
               conclude_abort ~notify:[] (`Conflict "one-phase commit refused")))
  | _ ->
    (* 2PC over write participants, read-only participants elided *)
    let votes_left = ref (List.length bindings) in
    let failed = ref None in
    let conclude () =
      match !failed with
      | None -> conclude_commit ~participants:rw_nodes ()
      | Some e -> conclude_abort e
    in
    let tally outcome =
      (match outcome with
      | Ok vote when (try Txrecord.dec_vote vote with _ -> false) -> ()
      | Ok _ -> if !failed = None then failed := Some (`Conflict "prepare refused")
      | Error _ -> if !failed = None then failed := Some `Timeout);
      decr votes_left;
      if !votes_left = 0 then conclude ()
    in
    List.iter
      (fun (node, (read_keys, writes)) ->
        let body =
          Txrecord.enc_prepare_req ~txid:t.id ~coordinator:(manager_node mgr) ~read_keys ~writes
        in
        Rpc.call mgr.rpc ~src:(manager_node mgr) ~dst:node ~service:Txrecord.service_prepare
          ~body tally)
      rw;
    List.iter
      (fun (node, (read_keys, _)) ->
        let body = Txrecord.enc_prepare_ro ~txid:t.id ~read_keys in
        Rpc.call mgr.rpc ~src:(manager_node mgr) ~dst:node ~service:Txrecord.service_prepare_ro
          ~body tally)
      ro

let merge_into_parent t =
  match t.parent with
  | None -> invalid_arg "Txn.merge_into_parent: root"
  | Some parent ->
    let child_wins _ child _parent = Some child in
    parent.writes <-
      String_map.union
        (fun _ child parent -> Some (String_map.union child_wins child parent))
        t.writes parent.writes

let commit t : unit io =
 fun k ->
  if t.finished_child then k (Error (`Aborted "transaction already finished"))
  else
    match t.parent with
    | Some _ ->
      merge_into_parent t;
      t.finished_child <- true;
      k (Ok ())
    | None -> commit_top t k

let abort t =
  match t.parent with
  | Some _ ->
    t.writes <- String_map.empty;
    t.finished_child <- true
  | None ->
    let mgr = t.mgr in
    Hashtbl.remove mgr.active t.id;
    let by_node = participants_of_root t in
    abort_at_participants mgr t.id (List.map fst (String_map.bindings by_node));
    Sim.emit mgr.sim ~src:(manager_node mgr) (Event.Txn_resolved { txid = t.id; committed = false })

let run mgr ?(max_attempts = 16) body : 'a io =
 fun k ->
  let rec attempt n =
    let t = begin_ mgr in
    let retry n e =
      match e with
      | (`Conflict _ | `Timeout) when n < max_attempts ->
        let backoff = Sim.ms 5 * n in
        let jitter = Rng.int mgr.rng (Sim.ms 5) in
        let inc = Node.incarnation mgr.node in
        ignore
          (Sim.schedule mgr.sim ~delay:(backoff + jitter) (fun () ->
               if Node.incarnation mgr.node = inc then attempt (n + 1)))
      | _ -> k (Error e)
    in
    let finish = function
      | Ok v -> (
        commit t (function
          | Ok () -> k (Ok v)
          | Error e -> retry n e))
      | Error e ->
        abort t;
        retry n e
    in
    body t finish
  in
  attempt 1

let compact mgr =
  (* keep: one incarnation record per life, plus committed-but-not-done
     transactions (their commit push must resume after a crash) *)
  let live =
    List.filter
      (function
        | Txrecord.C_incarnation -> true
        | Txrecord.C_committed { txid; _ } -> not (Hashtbl.mem mgr.finished txid)
        | Txrecord.C_done _ -> false)
      (Wal.records mgr.clog)
  in
  Wal.rewrite mgr.clog live

let active_count mgr = Hashtbl.length mgr.active

let undecided_commits mgr =
  Hashtbl.fold
    (fun txid _ acc -> if Hashtbl.mem mgr.finished txid then acc else acc + 1)
    mgr.committed 0
