(* Shared scaffolding for tests: a small simulated cluster with a
   transaction participant and coordinator on every node, and a view of
   engine task states that crash-equivalence checks compare. *)

type cluster = {
  sim : Sim.t;
  net : Network.t;
  rpc : Rpc.t;
  members : (string * Node.t * Participant.t * Txn.manager) list;
}

let cluster ?(config = Network.default_config) ?(seed = 42L) ids =
  let sim = Sim.create ~seed () in
  let net = Network.create ~config sim in
  let rpc = Rpc.create net in
  let make id =
    let node = Network.add_node net ~id in
    Rpc.attach rpc node;
    let participant = Participant.create ~rpc ~node in
    let mgr = Txn.manager ~rpc ~node ~participant in
    (id, node, participant, mgr)
  in
  { sim; net; rpc; members = List.map make ids }

let member c id =
  match List.find_opt (fun (mid, _, _, _) -> mid = id) c.members with
  | Some m -> m
  | None -> invalid_arg ("Harness.member: unknown node " ^ id)

let node c id =
  let _, n, _, _ = member c id in
  n

let participant c id =
  let _, _, p, _ = member c id in
  p

let manager c id =
  let _, _, _, m = member c id in
  m

let run ?until c = Sim.run ?until c.sim

let crash c id = Node.crash (node c id)

let recover c id = Node.recover (node c id)

(* Run a transactional program to completion and return its result.
   Fails the test if the simulation drains without the callback firing. *)
let exec c (io : 'a Txn.io) : ('a, Txn.error) result =
  let result = ref None in
  io (fun r -> result := Some r);
  Sim.run c.sim;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "transaction never completed (simulation drained)"

let exec_ok c io =
  match exec c io with
  | Ok v -> v
  | Error e -> Alcotest.failf "transaction failed: %s" (Txn.error_to_string e)

(* Each task's final output name and objects, attempt counters aside: a
   crash may cost re-dispatches, never a different result. *)
let task_outcomes states =
  List.map
    (fun (path, st) ->
      match st with
      | Wstate.Done { output; objects; _ } -> (path, Ok (output, objects))
      | Wstate.Failed reason -> (path, Error reason)
      | Wstate.Waiting _ | Wstate.Running _ -> (path, Error "unfinished"))
    states
