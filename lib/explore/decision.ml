(* Decision-point harvesting.

   A fault-free reference run is observed through the typed event bus;
   every event that marks a commit, a protocol message, a dispatch or a
   recovery boundary becomes a *decision point* — an instant at which
   the system is mid-decision and a well-timed fault is most likely to
   expose a recovery bug. Schedule generators then aim crashes and
   partitions at these instants instead of sweeping a blind time grid. *)

type point = {
  p_at : Sim.time;  (** virtual instant of the decision *)
  p_node : string;  (** node making the decision (event source) *)
  p_kind : string;  (** classification, e.g. ["commit"], ["rpc:tx.prepare"] *)
  p_label : string;  (** what was being decided (txid, task path, iid) *)
  p_peer : string option;  (** message destination, for partition targets *)
}

type t = { mutable rev_points : point list }

let collector () = { rev_points = [] }

(* Which message boundaries matter: transaction protocol steps, task
   dispatch/report traffic and repository operations. The RPC envelope
   response traffic is implied by the request's send instant. *)
let protocol_service service =
  String.starts_with ~prefix:"tx." service
  || String.starts_with ~prefix:"wf." service
  || String.starts_with ~prefix:"repo." service
  || String.starts_with ~prefix:"cons." service

let classify ~src ev =
  match ev with
  | Event.Txn_resolved { txid; committed = true } -> Some ("commit", txid, None)
  | Event.Txn_one_phase { txid; _ } -> Some ("one-phase", txid, None)
  | Event.Persist_batched _ -> Some ("batch-flush", src, None)
  | Event.Task_dispatched { path; host; _ } -> Some ("dispatch", path, Some host)
  | Event.Impl_completed { path; _ } -> Some ("impl-complete", path, None)
  | Event.Timer_fired { path; _ } -> Some ("timer", path, None)
  | Event.Wf_launched { iid; _ } -> Some ("launch", iid, None)
  | Event.Wf_relaunched { iid } -> Some ("relaunch", iid, None)
  | Event.Wf_concluded { iid; _ } -> Some ("conclude", iid, None)
  | Event.Cons_election_started { node; term } ->
    Some ("election", Printf.sprintf "%s@%d" node term, None)
  | Event.Cons_leader_elected { node; term } ->
    Some ("elected", Printf.sprintf "%s@%d" node term, None)
  | Event.Cons_stepped_down { node; term } ->
    Some ("step-down", Printf.sprintf "%s@%d" node term, None)
  | Event.Cons_committed { node; index; _ } ->
    Some ("cons-commit", Printf.sprintf "%s@%d" node index, None)
  | Event.Cons_caught_up { node; _ } -> Some ("catch-up", node, None)
  | Event.Rpc_sent { src = _; dst; service } when protocol_service service ->
    Some ("rpc:" ^ service, dst, Some dst)
  | Event.Rpc_loopback { node = _; service } when protocol_service service ->
    Some ("loopback:" ^ service, src, None)
  | _ -> None

let record c ~at ~src ev =
  match classify ~src ev with
  | None -> ()
  | Some (kind, label, peer) ->
    c.rev_points <-
      { p_at = at; p_node = src; p_kind = kind; p_label = label; p_peer = peer }
      :: c.rev_points

let subscriber c : Event.subscriber = fun ~at ~src ev -> record c ~at ~src ev

let points c = List.sort_uniq compare (List.rev c.rev_points)

let makespan c = List.fold_left (fun acc p -> max acc p.p_at) 0 (points c)

let by_kind pts =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun p ->
      Hashtbl.replace tally p.p_kind (1 + Option.value ~default:0 (Hashtbl.find_opt tally p.p_kind)))
    pts;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tally [])
