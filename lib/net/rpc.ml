let req_service = "$rpc.req"

let rsp_service = "$rpc.rsp"

type pending = {
  dst : string;
  service : string;
  body : string;
  timeout : Sim.time;
  mutable attempts_left : int;
  callback : (string, string) result -> unit;
  mutable timer : Sim.handle option;
}

type async_handler = src:string -> string -> reply:((string, string) result -> unit) -> unit

type endpoint = {
  pending_calls : (string, pending) Hashtbl.t;  (** client side, volatile *)
  replies_cache : (string, string) Hashtbl.t;  (** server side, volatile *)
  reply_order : string Queue.t;
      (** request ids in insertion order; the eviction cursor of the
          bounded cache (ids are unique, so FIFO is LRU here) *)
  async_services : (string, async_handler) Hashtbl.t;
      (** services whose reply is produced later via a continuation *)
  inflight : (string, unit) Hashtbl.t;
      (** request ids whose async handler is running but has not replied
          yet — duplicates arriving in the window are dropped (volatile,
          so a crash re-admits the retry after recovery) *)
}

type t = {
  net : Network.t;
  endpoints : (string, endpoint) Hashtbl.t;
  reply_cache_cap : int;
  mutable next_req : int;
}

let create ?(reply_cache_cap = 1024) net =
  if reply_cache_cap < 1 then invalid_arg "Rpc.create: reply_cache_cap must be >= 1";
  { net; endpoints = Hashtbl.create 8; reply_cache_cap; next_req = 0 }

let network t = t.net

let encode_req = Wire.(triple string string string)
(* req_id, service, body *)

let decode_req = Wire.(decode (d_triple d_string d_string d_string))

let encode_rsp (req_id, result) =
  let payload = match result with Ok r -> Wire.bool true ^ Wire.string r | Error e -> Wire.bool false ^ Wire.string e in
  Wire.string req_id ^ payload

let decode_rsp body =
  let open Wire in
  decode
    (fun d ->
      let req_id = d_string d in
      let ok = d_bool d in
      let payload = d_string d in
      (req_id, if ok then Ok payload else Error payload))
    body

let endpoint t node_id =
  match Hashtbl.find_opt t.endpoints node_id with
  | Some ep -> ep
  | None -> invalid_arg ("Rpc: node not attached: " ^ node_id)

let cache_reply t ep ~node encoded req_id =
  while Hashtbl.length ep.replies_cache >= t.reply_cache_cap do
    let oldest = Queue.pop ep.reply_order in
    Hashtbl.remove ep.replies_cache oldest;
    Sim.emit (Network.sim t.net) ~src:(Node.id node)
      (Event.Rpc_reply_evicted { node = Node.id node })
  done;
  Hashtbl.replace ep.replies_cache req_id encoded;
  Queue.add req_id ep.reply_order

(* A frame that does not decode is dropped, as the fabric drops a lost
   one: its sender's timeout covers both. *)
let handle_request t node ~src body =
  match decode_req body with
  | exception Wire.Malformed _ -> ""
  | req_id, service, payload ->
    let ep = endpoint t (Node.id node) in
    let send encoded =
      Network.send t.net ~src:(Node.id node) ~dst:src ~service:rsp_service ~body:encoded
    in
    (match Hashtbl.find_opt ep.replies_cache req_id with
    | Some cached -> send cached
    | None -> (
      match Hashtbl.find_opt ep.async_services service with
      | Some h ->
        (* Deferred reply: the handler completes later via [reply]. A
           duplicate arriving while the first invocation is still running
           is dropped — the eventual reply answers the request id, which
           every retry shares, so the caller still gets it. The node's
           incarnation fences replies produced by an invocation that
           started before a crash: after recovery the retry re-runs the
           handler, and only the fresh invocation may answer. *)
        if not (Hashtbl.mem ep.inflight req_id) then begin
          Hashtbl.replace ep.inflight req_id ();
          let inc = Node.incarnation node in
          let reply outcome =
            if Node.incarnation node = inc && Hashtbl.mem ep.inflight req_id then begin
              Hashtbl.remove ep.inflight req_id;
              let encoded = encode_rsp (req_id, outcome) in
              cache_reply t ep ~node encoded req_id;
              send encoded
            end
          in
          try h ~src payload ~reply with exn -> reply (Error (Printexc.to_string exn))
        end
      | None ->
        let outcome =
          match Node.handler node ~service with
          | None -> Error ("no such service: " ^ service)
          | Some h -> ( try Ok (h ~src payload) with exn -> Error (Printexc.to_string exn))
        in
        let encoded = encode_rsp (req_id, outcome) in
        cache_reply t ep ~node encoded req_id;
        send encoded));
    ""

let handle_response t node ~src:_ body =
  match decode_rsp body with
  | exception Wire.Malformed _ -> ""
  | req_id, result ->
    let ep = endpoint t (Node.id node) in
    (match Hashtbl.find_opt ep.pending_calls req_id with
    | None -> () (* late duplicate, or caller crashed since *)
    | Some p ->
      Hashtbl.remove ep.pending_calls req_id;
      (match p.timer with Some h -> Sim.cancel (Network.sim t.net) h | None -> ());
      p.callback result);
    ""

let attach t node =
  let id = Node.id node in
  if not (Hashtbl.mem t.endpoints id) then begin
    let ep =
      {
        pending_calls = Hashtbl.create 16;
        replies_cache = Hashtbl.create 16;
        reply_order = Queue.create ();
        async_services = Hashtbl.create 4;
        inflight = Hashtbl.create 4;
      }
    in
    Hashtbl.replace t.endpoints id ep;
    Node.serve node ~service:req_service (handle_request t node);
    Node.serve node ~service:rsp_service (handle_response t node);
    Node.on_crash node (fun () ->
        (* a dropped call's timeout would otherwise stay queued until it
           expires, holding the call's body and callback *)
        let sim = Network.sim t.net in
        Hashtbl.iter
          (fun _ p -> match p.timer with Some h -> Sim.cancel sim h | None -> ())
          ep.pending_calls;
        Hashtbl.reset ep.pending_calls;
        Hashtbl.reset ep.replies_cache;
        Queue.clear ep.reply_order;
        Hashtbl.reset ep.inflight)
  end

let serve_async t node ~service handler =
  let ep = endpoint t (Node.id node) in
  Hashtbl.replace ep.async_services service handler

let rec attempt t ~src ~req_id p =
  let body = encode_req (req_id, p.service, p.body) in
  Network.send t.net ~src ~dst:p.dst ~service:req_service ~body;
  let ep = endpoint t src in
  let on_timeout () =
    match Hashtbl.find_opt ep.pending_calls req_id with
    | None -> ()
    | Some p ->
      if p.attempts_left > 0 then begin
        p.attempts_left <- p.attempts_left - 1;
        Sim.emit (Network.sim t.net) ~src
          (Event.Rpc_retried { src; dst = p.dst; service = p.service });
        attempt t ~src ~req_id p
      end
      else begin
        Hashtbl.remove ep.pending_calls req_id;
        Sim.emit (Network.sim t.net) ~src
          (Event.Rpc_timed_out { src; dst = p.dst; service = p.service });
        p.callback (Error "timeout")
      end
  in
  p.timer <- Some (Sim.schedule (Network.sim t.net) ~delay:p.timeout on_timeout)

(* Loopback lane: the request never touches [Network] — no latency, no
   jitter, no loss, no retry machinery — but keeps the call asynchronous
   (deferred to a delay-0 event) so callers observe the same callback
   discipline as remote calls. The pending entry doubles as the crash
   fence: [on_crash] resets the table, so a node that crashes between
   issuing the call and the deferred delivery never sees the callback,
   exactly like a remote caller. *)
let deliver_loopback t ~src ~req_id node =
  let ep = endpoint t src in
  match Hashtbl.find_opt ep.pending_calls req_id with
  | None -> () (* caller crashed since the call was made *)
  | Some p ->
    if not (Node.up node) then Hashtbl.remove ep.pending_calls req_id
    else begin
      match Hashtbl.find_opt ep.async_services p.service with
      | Some h ->
        (* the pending entry stays until the deferred reply arrives, so
           the usual crash fence (on_crash resets the table) applies to
           the whole deferred window, not just the delivery hop *)
        let reply outcome =
          match Hashtbl.find_opt ep.pending_calls req_id with
          | None -> ()
          | Some p ->
            Hashtbl.remove ep.pending_calls req_id;
            p.callback outcome
        in
        (try h ~src p.body ~reply with exn -> reply (Error (Printexc.to_string exn)))
      | None ->
        Hashtbl.remove ep.pending_calls req_id;
        let result =
          match Node.handler node ~service:p.service with
          | None -> Error ("no such service: " ^ p.service)
          | Some h -> ( try Ok (h ~src p.body) with exn -> Error (Printexc.to_string exn))
        in
        p.callback result
    end

let request_id ~src n = String.concat "" [ src; "#"; string_of_int n ]

let call t ~src ~dst ~service ~body ?(timeout = Sim.ms 10) ?(retries = 8) callback =
  let ep = endpoint t src in
  Sim.emit (Network.sim t.net) ~src (Event.Rpc_sent { src; dst; service });
  t.next_req <- t.next_req + 1;
  let req_id = request_id ~src t.next_req in
  let p = { dst; service; body; timeout; attempts_left = retries; callback; timer = None } in
  Hashtbl.replace ep.pending_calls req_id p;
  match Network.find_node t.net src with
  | Some node when dst = src && Node.up node ->
    Sim.emit (Network.sim t.net) ~src (Event.Rpc_loopback { node = src; service });
    ignore (Sim.schedule (Network.sim t.net) ~delay:0 (fun () -> deliver_loopback t ~src ~req_id node))
  | Some _ | None -> attempt t ~src ~req_id p
