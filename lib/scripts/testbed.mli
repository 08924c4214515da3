(** One-call setup of a simulated cluster with the full stack: network,
    RPC, per-node transaction participant + coordinator, one or more
    execution services, and task hosts on every node. Used by the
    examples, the engine tests and the benches. *)

type t = {
  sim : Sim.t;
  net : Network.t;
  rpc : Rpc.t;
  registry : Registry.t;
  engine : Engine.t;  (** the first engine — the single-engine API *)
  engines : (string * Engine.t) list;  (** by node id, creation order *)
  nodes : Node.t list;
  participants : (string * Participant.t) list;  (** by node id *)
  managers : (string * Txn.manager) list;  (** by node id *)
}

val make :
  ?config:Network.config ->
  ?engine_config:Engine.config ->
  ?seed:int64 ->
  ?nodes:string list ->
  ?engines:string list ->
  unit ->
  t
(** [nodes] defaults to [["n0"]]. Without [engines], one engine lives on
    the first node (the historical single-engine testbed). With
    [engines], one engine is created per listed node id (node ids not in
    [nodes] are added); every node is attached as a task host to every
    engine — the per-engine service namespacing makes that safe. *)

val node : t -> string -> Node.t

val engine_on : t -> string -> Engine.t
(** The engine living on the given node id. *)

val participant : t -> string -> Participant.t

val manager : t -> string -> Txn.manager
(** The transaction coordinator on the given node id. *)

val run : ?until:Sim.time -> t -> unit

val crash : t -> string -> unit

val recover : t -> string -> unit

val apply_faults : t -> Fault.t -> unit
(** Schedule a declarative fault plan against this testbed: crashes and
    restarts resolve node ids through {!crash}/{!recover}, partitions
    through the network fabric — no more hand-rolled [Sim.at] chaos
    callbacks in tests. The plan is {!Fault.validate}d against this
    testbed's node population first; raises [Invalid_argument] on a
    plan naming unknown nodes or restarting a node that was never
    crashed, instead of silently matching nothing. *)

val launch_and_run :
  ?until:Sim.time ->
  t ->
  script:string ->
  root:string ->
  inputs:(string * Value.obj) list ->
  (string * Wstate.status, string) result
(** Launch an instance on the first engine, drive the simulation until
    it drains (or [until]), and return the instance id and final
    status. *)
