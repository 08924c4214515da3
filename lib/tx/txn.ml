type error =
  [ `Conflict of string
  | `Timeout
  | `Aborted of string ]

type 'a io = (('a, error) result -> unit) -> unit

let return v k = k (Ok v)

let ( let* ) (m : 'a io) (f : 'a -> 'b io) : 'b io =
 fun k -> m (function Ok v -> f v k | Error e -> k (Error e))

let pp_error ppf = function
  | `Conflict holder -> Format.fprintf ppf "conflict(%s)" holder
  | `Timeout -> Format.fprintf ppf "timeout"
  | `Aborted reason -> Format.fprintf ppf "aborted(%s)" reason

let error_to_string e = Format.asprintf "%a" pp_error e

module String_map = Map.Make (String)

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
  mutable writes : string option String_map.t String_map.t;
      (* node -> key -> value, None = delete *)
}

let manager_node mgr = Node.id mgr.node

let txid t = t.id

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
  { mgr; id; writes = String_map.empty }

let buffer t ~node ~key value =
  let keys = Option.value (String_map.find_opt node t.writes) ~default:String_map.empty in
  t.writes <- String_map.add node (String_map.add key value keys) t.writes

let write t ~node ~key ~value = buffer t ~node ~key (Some value)

let delete t ~node ~key = buffer t ~node ~key None

(* The writes per participant node, nodes in ascending order and each
   list in descending key order: participants log and apply writes in
   the order given, so this order fixes the bytes of their WAL
   records. *)
let participants t =
  let writes_of keys = String_map.fold (fun key value acc -> (key, value) :: acc) keys [] in
  List.rev (String_map.fold (fun node keys acc -> (node, writes_of keys) :: acc) t.writes [])

let abort_at_participants mgr txid nodes =
  let tell node =
    Rpc.call mgr.rpc ~src:(manager_node mgr) ~dst:node ~service:Txrecord.service_abort
      ~body:(Txrecord.enc_txid txid) (fun _ -> ())
  in
  List.iter tell nodes

(* Commit, with one fast lane in front of classic 2PC:

   - local one-phase commit: the only participant is the coordinator's
     own live node. The writes go straight to
     {!Participant.commit_local} as they are (no RPC, no encoding, no
     duplicate memory: a txid reaches it once) and only the completion
     is deferred to a simulation event, preserving the asynchronous
     callback contract.
   - 2PC: every other shape, a single writer on another node included.

   Both lanes presume abort: only a [C_committed] record (written by the
   2PC lane alone) obligates recovery to push commits; everything else
   aborts by default. *)
let commit (t : t) : unit io =
 fun k ->
  let mgr = t.mgr in
  let resolve committed =
    Hashtbl.remove mgr.active t.id;
    Sim.emit mgr.sim ~src:(manager_node mgr)
      (Event.Txn_resolved { txid = t.id; committed })
  in
  match participants t with
  | [] ->
    resolve true;
    k (Ok ())
  | [ (node, writes) ] when node = manager_node mgr && Node.up mgr.node ->
    (* local one-phase lane: decide synchronously against the co-hosted
       participant, defer only the continuation. The node's incarnation
       kills the continuation if the node crashes in between — the commit
       itself is already durable, exactly as if the reply were lost.
       [t.id] is fresh from [begin_] and this is its only commit, which
       is the once-per-txid contract of [commit_local]. Only a down
       store refuses here; any other exception is a bug and propagates. *)
    let vote =
      try Participant.commit_local mgr.participant ~txid:t.id ~writes
      with Kvstore.Unavailable _ -> false
    in
    let inc = Node.incarnation mgr.node in
    ignore
      (Sim.schedule mgr.sim ~delay:0 (fun () ->
           if Node.incarnation mgr.node = inc then
             if vote then begin
               Sim.emit mgr.sim ~src:(manager_node mgr) (Event.Txn_one_phase { txid = t.id });
               resolve true;
               k (Ok ())
             end
             else begin
               (* a refused one-phase commit took no lock: nothing to
                  tell the participant *)
               resolve false;
               k (Error (`Conflict "one-phase commit refused"))
             end))
  | by_node ->
    let nodes = List.map fst by_node in
    let votes_left = ref (List.length by_node) in
    let failed = ref None in
    let conclude () =
      match !failed with
      | None ->
        Wal.append mgr.clog (Txrecord.C_committed { txid = t.id; participants = nodes });
        Hashtbl.replace mgr.committed t.id nodes;
        resolve true;
        push_commits mgr t.id nodes (fun () -> k (Ok ()))
      | Some e ->
        resolve false;
        abort_at_participants mgr t.id nodes;
        k (Error e)
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
      (fun (node, writes) ->
        let body = Txrecord.enc_prepare_req ~txid:t.id ~coordinator:(manager_node mgr) ~writes in
        Rpc.call mgr.rpc ~src:(manager_node mgr) ~dst:node ~service:Txrecord.service_prepare
          ~body tally)
      by_node

(* Writes are only buffered until commit, and a participant takes locks
   at prepare, so no participant has seen an uncommitted transaction:
   aborting it is local. *)
let abort t =
  let mgr = t.mgr in
  Hashtbl.remove mgr.active t.id;
  Sim.emit mgr.sim ~src:(manager_node mgr) (Event.Txn_resolved { txid = t.id; committed = false })

let run mgr body : 'a io =
 fun k ->
  let t = begin_ mgr in
  body t (function
    | Ok v -> commit t (function Ok () -> k (Ok v) | Error e -> k (Error e))
    | Error e ->
      abort t;
      k (Error e))

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
