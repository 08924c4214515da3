type role = Follower | Candidate | Leader

type entry = {
  e_term : int;
  e_payload : string;  (* "" is the leader's election no-op *)
}

type t = {
  rpc : Rpc.t;
  node : Node.t;
  self : string;
  others : string list;
  quorum : int;
  rank : int;
  store : Kvstore.t;
  apply : string -> string;
  reset : unit -> unit;
  mutable role : role;
  mutable term : int;
  mutable voted_for : string option;
  mutable entries : entry array;  (* capacity >= loglen; slot i-1 holds index i *)
  mutable loglen : int;
  mutable commit : int;
  mutable applied : int;  (* volatile; trails commit only inside apply_committed *)
  mutable leader_hint : string option;
  mutable electing : bool;
  mutable catching_up : bool;
  pending : (int, (string, string) result -> unit) Hashtbl.t;
      (* leader only: client reply continuations by log index; volatile *)
  next_idx : (string, int) Hashtbl.t;
  match_idx : (string, int) Hashtbl.t;
  inflight : (string, bool) Hashtbl.t;
  pushed_commit : (string, int) Hashtbl.t;
      (* commit watermark last acknowledged by each follower, so quorum
         advances are pushed without standing heartbeats *)
  sync_left : (string, int) Hashtbl.t;
      (* bounded re-send budget per follower; refilled on every ack and
         every recovery ping, so it only ever exhausts against a peer
         that stays unreachable *)
}

let service_append = "cons.append"

let service_replicate = "cons.replicate"

let service_vote = "cons.vote"

let service_ping = "cons.ping"

(* Every delay is a fixed constant: the protocol's only randomness is
   whatever the simulated network injects, so a run is a pure function
   of the seed. *)
let vote_timeout = Sim.ms 5

let replicate_timeout = Sim.ms 10

let probe_timeout = Sim.ms 5

let sync_period = Sim.ms 30

let sync_retries = 12

let election_retry_base = Sim.ms 15

let election_stagger = Sim.ms 10

let election_rounds = 6

let sim t = Network.sim (Rpc.network t.rpc)

let role t = t.role

let current_term t = t.term

let leader_hint t = t.leader_hint

let commit_index t = t.commit

let log_length t = t.loglen

(* --- durable representation --- *)

let k_term = "term"

let k_voted = "voted"

let k_len = "n"

let k_commit = "c"

let k_entry i = Printf.sprintf "e:%d" i

let persist_meta t =
  Kvstore.put t.store k_term (string_of_int t.term);
  Kvstore.put t.store k_voted (match t.voted_for with None -> "" | Some v -> v)

let persist_len t = Kvstore.put t.store k_len (string_of_int t.loglen)

let persist_commit t = Kvstore.put t.store k_commit (string_of_int t.commit)

let persist_entry t i =
  let e = t.entries.(i - 1) in
  Kvstore.put t.store (k_entry i) (Wire.(pair int string) (e.e_term, e.e_payload))

let get_entry t i = t.entries.(i - 1)

let last_term t = if t.loglen = 0 then 0 else (get_entry t t.loglen).e_term

let ensure_capacity t n =
  if n > Array.length t.entries then begin
    let cap = max 16 (max n (2 * Array.length t.entries)) in
    let fresh = Array.make cap { e_term = 0; e_payload = "" } in
    Array.blit t.entries 0 fresh 0 t.loglen;
    t.entries <- fresh
  end

let set_entry t i e =
  ensure_capacity t i;
  t.entries.(i - 1) <- e;
  persist_entry t i;
  if i > t.loglen then t.loglen <- i

let committed t =
  List.init t.commit (fun i ->
      let e = get_entry t (i + 1) in
      (e.e_term, e.e_payload))

(* --- state machine application --- *)

let apply_committed t =
  while t.applied < t.commit do
    t.applied <- t.applied + 1;
    let e = get_entry t t.applied in
    let reply = if e.e_payload = "" then "" else t.apply e.e_payload in
    match Hashtbl.find_opt t.pending t.applied with
    | None -> ()
    | Some k ->
      Hashtbl.remove t.pending t.applied;
      k (Ok reply)
  done

let fail_pending t reason =
  let ks = Hashtbl.fold (fun _ k acc -> k :: acc) t.pending [] in
  Hashtbl.reset t.pending;
  List.iter (fun k -> k (Error reason)) ks

(* --- role transitions --- *)

let emit t ev = Sim.emit (sim t) ~src:t.self ev

(* Observed a higher term: whatever we were, we are a follower of it.
   Uncommitted entries we were shepherding may still commit under the
   new leader, or may be truncated — either way the client's retry is
   deduplicated by the state machine, so failing the continuations here
   is safe. *)
let step_down t new_term =
  if new_term > t.term then begin
    if t.role <> Follower then emit t (Event.Cons_stepped_down { node = t.self; term = new_term });
    t.term <- new_term;
    t.voted_for <- None;
    t.role <- Follower;
    t.electing <- false;
    t.leader_hint <- None;
    persist_meta t;
    fail_pending t "deposed"
  end

let inflight t peer = Hashtbl.find_opt t.inflight peer = Some true

(* --- leader-side replication --- *)

let enc_replicate =
  Wire.(
    pair
      (triple int string int)
      (triple int (list (pair int string)) int))

let dec_replicate =
  Wire.(
    decode
      (d_pair
         (d_triple d_int d_string d_int)
         (d_triple d_int (d_list (d_pair d_int d_string)) d_int)))

let rec advance_commit t =
  let n = ref t.commit in
  for i = t.commit + 1 to t.loglen do
    (* only own-term entries establish a quorum; older ones commit
       transitively (the Raft commit rule) *)
    if (get_entry t i).e_term = t.term then begin
      let acks =
        1
        + List.length
            (List.filter
               (fun p -> match Hashtbl.find_opt t.match_idx p with Some m -> m >= i | None -> false)
               t.others)
      in
      if acks >= t.quorum then n := i
    end
  done;
  if !n > t.commit then begin
    t.commit <- !n;
    persist_commit t;
    emit t (Event.Cons_committed { node = t.self; index = t.commit; term = t.term });
    apply_committed t;
    (* push the new watermark to followers that have not seen it — a
       bounded substitute for heartbeats, so follower reads converge
       without keeping the simulator alive forever *)
    List.iter
      (fun p ->
        if Hashtbl.find_opt t.pushed_commit p <> Some t.commit && not (inflight t p) then
          send_replicate t p)
      t.others
  end

and send_replicate t peer =
  if t.role = Leader && not (inflight t peer) then begin
    Hashtbl.replace t.inflight peer true;
    let this_term = t.term and inc = Node.incarnation t.node in
    let next = match Hashtbl.find_opt t.next_idx peer with Some n -> n | None -> t.loglen + 1 in
    let prev = next - 1 in
    let prev_term = if prev = 0 then 0 else (get_entry t prev).e_term in
    let batch =
      List.init (t.loglen - prev) (fun i ->
          let e = get_entry t (prev + 1 + i) in
          (e.e_term, e.e_payload))
    in
    let sent_commit = t.commit in
    let body = enc_replicate ((this_term, t.self, prev), (prev_term, batch, sent_commit)) in
    Rpc.call t.rpc ~src:t.self ~dst:peer ~service:service_replicate ~body
      ~timeout:replicate_timeout ~retries:2 (fun res ->
        Hashtbl.replace t.inflight peer false;
        if t.role = Leader && t.term = this_term then begin
          match res with
          | Ok rsp -> (
            match Wire.(decode (d_triple d_int d_bool d_int)) rsp with
            | exception Wire.Malformed _ -> ()
            | rterm, ok, rlen ->
              if rterm > t.term then step_down t rterm
              else if ok then begin
                let matched = prev + List.length batch in
                Hashtbl.replace t.match_idx peer matched;
                Hashtbl.replace t.next_idx peer (matched + 1);
                Hashtbl.replace t.pushed_commit peer sent_commit;
                Hashtbl.replace t.sync_left peer sync_retries;
                advance_commit t;
                if
                  (match Hashtbl.find_opt t.next_idx peer with
                  | Some n -> n <= t.loglen
                  | None -> false)
                  || Hashtbl.find_opt t.pushed_commit peer <> Some t.commit
                then send_replicate t peer
              end
              else begin
                (* log mismatch: back up using the follower's reported
                   length and retry immediately — strictly decreasing,
                   so this terminates *)
                Hashtbl.replace t.next_idx peer (max 1 (min (next - 1) (rlen + 1)));
                send_replicate t peer
              end)
          | Error _ ->
            let left =
              match Hashtbl.find_opt t.sync_left peer with Some n -> n | None -> sync_retries
            in
            if left > 0 then begin
              Hashtbl.replace t.sync_left peer (left - 1);
              ignore
                (Sim.schedule (sim t) ~delay:sync_period (fun () ->
                     if Node.incarnation t.node = inc && t.role = Leader && t.term = this_term
                     then send_replicate t peer))
            end
        end)
  end

let broadcast t = List.iter (fun p -> if not (inflight t p) then send_replicate t p) t.others

let append_leader t payload k =
  let i = t.loglen + 1 in
  set_entry t i { e_term = t.term; e_payload = payload };
  persist_len t;
  (match k with Some k -> Hashtbl.replace t.pending i k | None -> ());
  broadcast t;
  advance_commit t (* a single-replica group commits on its own *)

(* --- elections --- *)

let become_leader t =
  t.role <- Leader;
  t.leader_hint <- Some t.self;
  t.electing <- false;
  emit t (Event.Cons_leader_elected { node = t.self; term = t.term });
  List.iter
    (fun p ->
      Hashtbl.replace t.next_idx p (t.loglen + 1);
      Hashtbl.replace t.match_idx p 0;
      Hashtbl.replace t.inflight p false;
      Hashtbl.replace t.pushed_commit p (-1);
      Hashtbl.replace t.sync_left p sync_retries)
    t.others;
  (* the election no-op: gives this term an entry to count quorums on,
     committing everything a previous leader left uncommitted *)
  append_leader t "" None

let rec election_round t round =
  if t.role <> Leader then begin
    t.term <- t.term + 1;
    t.voted_for <- Some t.self;
    t.role <- Candidate;
    t.leader_hint <- None;
    persist_meta t;
    emit t (Event.Cons_election_started { node = t.self; term = t.term });
    let this_term = t.term and inc = Node.incarnation t.node in
    let votes = ref 1 in
    if !votes >= t.quorum then become_leader t
    else begin
      let body =
        Wire.(pair (pair int string) (pair int int))
          ((this_term, t.self), (t.loglen, last_term t))
      in
      List.iter
        (fun p ->
          Rpc.call t.rpc ~src:t.self ~dst:p ~service:service_vote ~body ~timeout:vote_timeout
            ~retries:1 (function
              | Error _ -> ()
              | Ok rsp -> (
                match Wire.(decode (d_pair d_int d_bool)) rsp with
                | exception Wire.Malformed _ -> ()
                | rterm, granted ->
                  if rterm > t.term then step_down t rterm
                  else if granted && t.role = Candidate && t.term = this_term then begin
                    incr votes;
                    if !votes = t.quorum then become_leader t
                  end)))
        t.others;
      (* bounded retry, staggered by rank so concurrent candidates
         converge on the lowest-ranked live one instead of splitting
         votes forever *)
      let delay = election_retry_base + (t.rank * election_stagger) in
      ignore
        (Sim.schedule (sim t) ~delay (fun () ->
             if Node.incarnation t.node = inc && t.role = Candidate && t.term = this_term then
               if round < election_rounds then election_round t (round + 1)
               else begin
                 (* give up: quorum unreachable. The next urgent client
                    append re-campaigns, so no standing timer is needed *)
                 t.role <- Follower;
                 t.electing <- false
               end))
    end
  end

let start_election t =
  if t.role <> Leader && not t.electing then begin
    t.electing <- true;
    election_round t 1
  end

(* --- follower-side handlers --- *)

let handle_replicate t ~src:_ body =
  let (rterm, leader, prev), (prev_term, batch, lcommit) = dec_replicate body in
  let nack () = Wire.(triple int bool int) (t.term, false, t.loglen) in
  if rterm < t.term || prev < 0 then nack ()
  else begin
    if rterm > t.term then step_down t rterm;
    t.role <- Follower;
    t.electing <- false;
    t.leader_hint <- Some leader;
    if prev > t.loglen then nack ()
    else if prev >= 1 && (get_entry t prev).e_term <> prev_term then
      Wire.(triple int bool int) (t.term, false, prev - 1)
    else begin
      List.iteri
        (fun i (e_term, e_payload) ->
          let idx = prev + 1 + i in
          if idx <= t.loglen && (get_entry t idx).e_term <> e_term then begin
            (* conflicting uncommitted suffix: truncate, then overwrite *)
            t.loglen <- idx - 1;
            persist_len t
          end;
          if idx > t.loglen then set_entry t idx { e_term; e_payload })
        batch;
      persist_len t;
      let nc = min lcommit t.loglen in
      if nc > t.commit then begin
        t.commit <- nc;
        persist_commit t;
        emit t (Event.Cons_committed { node = t.self; index = t.commit; term = rterm });
        apply_committed t
      end;
      if t.catching_up && t.commit >= lcommit then begin
        t.catching_up <- false;
        emit t (Event.Cons_caught_up { node = t.self; upto = t.commit })
      end;
      Wire.(triple int bool int) (t.term, true, t.loglen)
    end
  end

let handle_vote t ~src:_ body =
  let (rterm, cand), (cand_len, cand_last_term) =
    Wire.(decode (d_pair (d_pair d_int d_string) (d_pair d_int d_int))) body
  in
  if rterm > t.term then step_down t rterm;
  let up_to_date =
    cand_last_term > last_term t || (cand_last_term = last_term t && cand_len >= t.loglen)
  in
  let grant =
    rterm = t.term && up_to_date
    && (match t.voted_for with None -> true | Some v -> v = cand)
  in
  if grant then begin
    t.voted_for <- Some cand;
    persist_meta t
  end;
  Wire.(pair int bool) (t.term, grant)

(* A ping does two jobs: it answers "who leads, how far is the log" for
   recovering replicas and probing clients, and — when it reaches a
   leader — it restarts the replication stream towards the sender, which
   is how a rejoined replica catches up without any standing timer. *)
let handle_ping t ~src:_ body =
  let sender = Wire.(decode d_string) body in
  if t.role = Leader && List.mem sender t.others then begin
    Hashtbl.replace t.sync_left sender sync_retries;
    if not (inflight t sender) then send_replicate t sender
  end;
  Wire.(triple int (option string) int) (t.term, t.leader_hint, t.commit)

let handle_append t ~src:_ body ~reply =
  let urgent, payload = Wire.(decode (d_pair d_bool d_string)) body in
  let tagged tag v = Wire.(pair string string) (tag, v) in
  match t.role with
  | Leader -> append_leader t payload (Some (function
      | Ok r -> reply (Ok (tagged "ok" r))
      | Error e -> reply (Ok (tagged "err" e))))
  | Candidate -> reply (Ok (tagged "electing" ""))
  | Follower -> (
    (* A voter with no hint yet presumes its candidate leads: the
       winner's first replicate may simply not have arrived. Campaigning
       here instead would depose each new leader the moment it won. *)
    let presumed = match t.leader_hint with None -> t.voted_for | hint -> hint in
    match presumed with
    | Some l when l <> t.self && not urgent -> reply (Ok (tagged "redirect" l))
    | Some l when l <> t.self ->
      (* the client could not reach the leader we believe in — probe it
         before campaigning, so a client-side partition does not depose
         a perfectly healthy leader, and a dead candidate cannot wedge
         the group *)
      Rpc.call t.rpc ~src:t.self ~dst:l ~service:service_ping ~body:(Wire.string t.self)
        ~timeout:probe_timeout ~retries:1 (function
          | Ok _ -> reply (Ok (tagged "redirect" l))
          | Error _ ->
            if t.role = Follower then start_election t;
            reply (Ok (tagged "electing" "")))
    | _ ->
      if urgent then begin
        start_election t;
        reply (Ok (tagged "electing" ""))
      end
      else reply (Ok (tagged "noleader" ""))
  )

(* --- recovery --- *)

let load t =
  let geti key default =
    match Kvstore.get t.store key with
    | None -> default
    | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  in
  t.term <- geti k_term 0;
  t.voted_for <-
    (match Kvstore.get t.store k_voted with None | Some "" -> None | Some v -> Some v);
  let n = geti k_len 0 in
  t.loglen <- 0;
  (try
     for i = 1 to n do
       match Kvstore.get t.store (k_entry i) with
       | None -> raise Exit (* torn tail: entry write landed, length did not *)
       | Some s ->
         let e_term, e_payload = Wire.(decode (d_pair d_int d_string)) s in
         ensure_capacity t i;
         t.entries.(i - 1) <- { e_term; e_payload };
         t.loglen <- i
     done
   with Exit -> ());
  persist_len t;
  t.commit <- min (geti k_commit 0) t.loglen

let recover t =
  Kvstore.recover t.store;
  load t;
  t.role <- Follower;
  t.leader_hint <- None;
  t.electing <- false;
  t.catching_up <- true;
  (* rebuild the state machine from the committed prefix — never from
     its own (possibly half-applied) remains *)
  t.reset ();
  t.applied <- 0;
  apply_committed t;
  (* announce the rejoin: whichever peer currently leads will resume
     pushing the suffix we missed *)
  let inc = Node.incarnation t.node in
  ignore
    (Sim.schedule (sim t) ~delay:0 (fun () ->
         if Node.incarnation t.node = inc then
           List.iter
             (fun p ->
               Rpc.call t.rpc ~src:t.self ~dst:p ~service:service_ping
                 ~body:(Wire.string t.self) ~timeout:probe_timeout ~retries:1 (function
                 | Ok rsp -> (
                   match Wire.(decode (d_triple d_int (d_option d_string) d_int)) rsp with
                   | exception Wire.Malformed _ -> ()
                   | rterm, hint, _ ->
                     if rterm > t.term then step_down t rterm;
                     if t.leader_hint = None && rterm >= t.term then t.leader_hint <- hint)
                 | Error _ -> ()))
             t.others))

let create ~rpc ~node ~peers ~apply ~reset () =
  let self = Node.id node in
  let peers = List.sort_uniq compare peers in
  if not (List.mem self peers) then invalid_arg "Rlog.create: node must be one of the peers";
  let rank = ref 0 in
  List.iteri (fun i p -> if p = self then rank := i) peers;
  let t =
    {
      rpc;
      node;
      self;
      others = List.filter (fun p -> p <> self) peers;
      quorum = (List.length peers / 2) + 1;
      rank = !rank;
      store = Kvstore.create ~name:("cons@" ^ self);
      apply;
      reset;
      role = Follower;
      term = 0;
      voted_for = None;
      entries = [||];
      loglen = 0;
      commit = 0;
      applied = 0;
      leader_hint = None;
      electing = false;
      catching_up = false;
      pending = Hashtbl.create 16;
      next_idx = Hashtbl.create 4;
      match_idx = Hashtbl.create 4;
      inflight = Hashtbl.create 4;
      pushed_commit = Hashtbl.create 4;
      sync_left = Hashtbl.create 4;
    }
  in
  Node.serve node ~service:service_replicate (handle_replicate t);
  Node.serve node ~service:service_vote (handle_vote t);
  Node.serve node ~service:service_ping (handle_ping t);
  Rpc.serve_async rpc node ~service:service_append (handle_append t);
  Node.on_crash node (fun () ->
      t.role <- Follower;
      t.leader_hint <- None;
      t.electing <- false;
      Hashtbl.reset t.pending;
      Kvstore.crash t.store);
  Node.on_recover node (fun () -> recover t);
  (* bootstrap: the lowest-ranked replica campaigns for term 1 so the
     group has a leader before the first client append arrives *)
  let inc = Node.incarnation node in
  if t.rank = 0 then
    ignore
      (Sim.schedule (sim t) ~delay:0 (fun () ->
           if Node.incarnation node = inc then start_election t));
  t
