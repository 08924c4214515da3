type t = {
  rpc : Rpc.t;
  node : Node.t;
  mgr : Txn.manager;
  participant : Participant.t;
  sim : Sim.t;
  overhead : Sim.time;  (** engine CPU cost per dispatch; 0 = free *)
  mutable busy_until : Sim.time;
      (* dispatches are serialised through the engine's one scheduler
         thread: each costs [overhead] of engine time, so concurrent
         dispatch demand queues here (what the cluster bench measures) *)
  mutable incarnation : int;
  mutable pending : ((string * string option) list * (unit -> unit)) list;
      (* queued persist requests awaiting the flush event, newest first *)
  mutable flush_armed : bool;
  ready : (unit -> unit) Queue.t;
      (* dispatches awaiting their slice of engine CPU: one chained
         drain event pops the head every [overhead], instead of one
         pre-scheduled simulator event per dispatch *)
  mutable draining : bool;
}

let create ?(overhead = 0) ~rpc ~node ~mgr ~participant () =
  let t =
    {
      rpc;
      node;
      mgr;
      participant;
      sim = Network.sim (Rpc.network rpc);
      overhead;
      busy_until = 0;
      incarnation = 0;
      pending = [];
      flush_armed = false;
      ready = Queue.create ();
      draining = false;
    }
  in
  Node.on_crash node (fun () ->
      t.incarnation <- t.incarnation + 1;
      t.busy_until <- 0;
      t.pending <- [];
      t.flush_armed <- false;
      Queue.clear t.ready;
      t.draining <- false);
  t

let sim t = t.sim

let node_id t = Node.id t.node

let persist_now t writes k =
  let node = node_id t in
  let io =
    Txn.run t.mgr (fun txn ->
        List.iter
          (function
            | key, Some value -> Txn.write txn ~node ~key ~value
            | key, None -> Txn.delete txn ~node ~key)
          writes;
        Txn.return ())
  in
  io (function
    | Ok () -> k ()
    | Error e ->
      Sim.emit t.sim ~src:(node_id t) (Event.Txn_failed { detail = Txn.error_to_string e }))

(* Batched persistence: requests issued within one simulation timestep
   (one evaluation-pump pass, plus whatever else fires at that instant)
   coalesce into a single transaction. Later writes to the same key win,
   matching the order the requests would have committed individually;
   the continuations run in request order after the one commit. *)
let flush t =
  t.flush_armed <- false;
  let requests = List.rev t.pending in
  t.pending <- [];
  match requests with
  | [] -> ()
  | [ (writes, k) ] -> persist_now t writes k
  | _ ->
    let writes = List.concat_map fst requests in
    Sim.emit t.sim ~src:(node_id t)
      (Event.Persist_batched { requests = List.length requests; writes = List.length writes });
    persist_now t writes (fun () -> List.iter (fun (_, k) -> k ()) requests)

let persist t writes k =
  t.pending <- (writes, k) :: t.pending;
  if not t.flush_armed then begin
    t.flush_armed <- true;
    let inc = t.incarnation in
    ignore
      (Sim.schedule t.sim ~delay:0 (fun () ->
           (* a crash in between cleared the queue and bumped the
              incarnation; this stale flush must not touch the queue
              refilled after recovery *)
           if t.incarnation = inc then flush t))
  end

(* The intrusive ready deque: enqueues are O(1); one drain event is in
   flight at a time, popping the head every [overhead] — timing is
   identical to the historical per-dispatch busy-cursor scheduling
   (k-th dispatch fires at max(enqueue, previous fire) + overhead), but
   the simulator heap holds one event per engine, not one per queued
   dispatch. *)
let rec drain t () =
  match Queue.take_opt t.ready with
  | None -> t.draining <- false
  | Some fire ->
    t.busy_until <- Sim.now t.sim;
    if Node.up t.node then fire ();
    if Queue.is_empty t.ready then t.draining <- false else schedule_drain t t.overhead

and schedule_drain t delay =
  let inc = t.incarnation in
  ignore (Sim.schedule t.sim ~delay (fun () -> if t.incarnation = inc then drain t ()))

let fire_exec t ~host ~retries req k =
  Sim.emit t.sim ~src:(node_id t)
    (Event.Task_dispatched
       {
         path = Wstate.path_to_string req.Wfmsg.x_path;
         code = req.Wfmsg.x_code;
         host;
         attempt = req.Wfmsg.x_attempt;
       });
  Rpc.call t.rpc ~src:(node_id t) ~dst:host
    ~service:(Wfmsg.service_exec ~engine:(node_id t))
    ~body:(Wfmsg.enc_exec req) ~retries k

let send_exec t ~host ~retries req k =
  (* overhead = 0 dispatches immediately — no deferred-fire closure, no
     queue traffic on the common bench/explore configuration *)
  if t.overhead = 0 then fire_exec t ~host ~retries req k
  else begin
    Queue.push (fun () -> fire_exec t ~host ~retries req k) t.ready;
    if not t.draining then begin
      t.draining <- true;
      let now = Sim.now t.sim in
      let start = max now t.busy_until in
      schedule_drain t (start + t.overhead - now)
    end
  end

let ready_len t = Queue.length t.ready

let committed_value t ~key = Participant.committed_value t.participant ~key

(* Prefix slices of one committed-key read. Correctness rests on
   [Kvstore.keys] returning keys in [String.compare] order: every key
   carrying a prefix then sits in one contiguous run starting at the
   prefix's lower bound, found by binary search and ended by a forward
   walk — O(log n + slice) per instance instead of a whole-store filter.
   An instance's rows share the prefix [wf:<iid>:]; [Engine.launch]
   refuses ids containing ':' so that no instance's prefix covers
   another instance's keys ([wf:a:] would match every key of [a:t:x]),
   and the id "dir", whose prefix is the directory's [wf:dir:]. *)
let committed_key_array t = Array.of_list (Participant.committed_keys t.participant)

let key_slice keys ~prefix =
  let n = Array.length keys in
  let rec lower lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare keys.(mid) prefix < 0 then lower (mid + 1) hi else lower lo mid
  in
  let first = lower 0 n in
  let rec stop i = if i < n && String.starts_with ~prefix keys.(i) then stop (i + 1) else i in
  Array.to_list (Array.sub keys first (stop first - first))

let history_in t keys ~iid =
  key_slice keys ~prefix:(Wstate.task_prefix iid ^ "h:")
  |> List.filter_map (fun key -> Option.map Wstate.decode_history (committed_value t ~key))
  |> List.sort compare

let committed_history t ~iid = history_in t (committed_key_array t) ~iid

let on_apply t f = Participant.on_apply t.participant f

let compact t =
  Participant.checkpoint t.participant;
  Txn.compact t.mgr
