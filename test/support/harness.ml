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

(* Reads of an instance's live mirror; empty for an unknown instance. *)
let task_state engine iid path =
  Option.bind (Engine.mirror engine iid) (fun m -> Instate.get_state m path)

let task_states engine iid =
  Option.fold ~none:[] ~some:Instate.task_states (Engine.mirror engine iid)

let queued_watchdogs engine iid =
  Option.fold ~none:[] ~some:Instate.queued_watchdogs (Engine.mirror engine iid)

(* The engine's live mirror of an instance against the one recovery
   rebuilds from the participant's committed store: [None] when they
   agree table by table, else the names of the tables that differ. An
   instance whose launch is not yet durable has nothing to compare. *)
let mirror_mismatch engine participant iid =
  let read key = Participant.committed_value participant ~key in
  match (Engine.mirror engine iid, read (Wstate.key iid Wstate.Meta)) with
  | None, _ | _, None -> None
  | Some (live : Instate.t), Some raw -> (
    let meta = Wstate.decode_value Wstate.Meta raw in
    let rebuilt =
      Instate.create ~iid ~script_text:meta.Wstate.m_script ~schema:live.Instate.schema
        ~status:meta.Wstate.m_status ~external_inputs:meta.Wstate.m_inputs
    in
    let store = Participant.store participant in
    Instate.load_committed rebuilt ~read
      ~keys:(Kvstore.keys_with_prefix store ~prefix:(Wstate.task_prefix iid));
    if rebuilt.Instate.status <> Wstate.Wf_running then Instate.trim_concluded rebuilt;
    let sorted tbl = List.sort compare (List.of_seq (Hashtbl.to_seq tbl)) in
    let table name live rebuilt = if sorted live = sorted rebuilt then [] else [ name ] in
    let field name same = if same then [] else [ name ] in
    match
      List.concat
        [
          table "states" live.Instate.states rebuilt.Instate.states;
          table "chosen" live.Instate.chosen rebuilt.Instate.chosen;
          table "marks" live.Instate.marks rebuilt.Instate.marks;
          table "repeats" live.Instate.repeats rebuilt.Instate.repeats;
          table "timers" live.Instate.timers rebuilt.Instate.timers;
          table "timer_arms" live.Instate.timer_arms rebuilt.Instate.timer_arms;
          table "backoffs" live.Instate.backoffs rebuilt.Instate.backoffs;
          table "compensated" live.Instate.compensated rebuilt.Instate.compensated;
          field "status" (live.Instate.status = rebuilt.Instate.status);
          field "script_text" (live.Instate.script_text = rebuilt.Instate.script_text);
          field "hseq" (live.Instate.hseq = rebuilt.Instate.hseq);
        ]
    with
    | [] -> None
    | names -> Some (String.concat ", " names))

(* Run the simulation to [until] one virtual instant at a time, and fail
   at the first instant after which the live mirror of [iid] differs
   from the committed store. Within an instant they may differ: the
   mirror applies rows when they are decided, ahead of the store, which
   catches up at the instant's flush. *)
let check_mirror_through_run ~until engine participant sim iid =
  while Sim.now sim <= until && Sim.step sim do
    Sim.run ~until:(Sim.now sim) sim;
    match mirror_mismatch engine participant iid with
    | None -> ()
    | Some tables ->
      Alcotest.failf "at %d us the live mirror of %s differs from the store in: %s" (Sim.now sim)
        iid tables
  done
