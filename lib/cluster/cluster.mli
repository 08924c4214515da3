(** Sharded multi-engine cluster: N execution services + the repository
    service on one simulated fabric, with deterministic instance
    placement (paper §3, Fig 4 — "execution services", plural).

    Launches are routed to an engine by a placement {!policy}; the
    [iid -> engine] assignment is persisted through the repository's
    placement directory so any node can resolve ownership; status and
    admin queries route through the same directory. Engines coexist
    without knowing of each other: completion/mark/exec services are
    namespaced per engine node ({!Wfmsg}); every engine keeps only the
    events it published itself in its trace, and scopes its metrics to
    its own event-source label. *)

type policy =
  | Round_robin  (** k-th launch goes to engine [k mod n] *)
  | Hash_iid  (** stable hash of the instance id, mod n *)

type t

val make :
  ?config:Network.config ->
  ?engine_config:Engine.config ->
  ?seed:int64 ->
  ?policy:policy ->
  ?hosts:string list ->
  ?repo_node:string ->
  ?repo_replicas:int ->
  engines:string list ->
  unit ->
  t
(** [engines] names the engine nodes (one engine each). [hosts] adds
    pure task-host nodes; every node hosts tasks for every engine. The
    repository service lives on [repo_node] (default ["repo"]) — or,
    with [repo_replicas = n >= 2], on a consensus-replicated group of
    [n] nodes named [<repo_node>1 .. <repo_node>n] ({!Repo_group}):
    placement writes then commit by quorum and the directory survives
    any minority of repository crashes, with engine clients failing
    over to the elected leader. [policy] defaults to [Round_robin].
    Same seed + same calls = identical placement and results. *)

val sim : t -> Sim.t

val net : t -> Network.t

val rpc : t -> Rpc.t

val registry : t -> Registry.t

val repository : t -> Repository.t
(** The repository's durable state: the single node's store, or — when
    replicated — the most advanced replica's ({!Repo_group.authoritative}). *)

val repo_group : t -> Repo_group.t option
(** The consensus-replicated repository, when [repo_replicas >= 2]. *)

val repo_nodes : t -> string list
(** The repository node id(s): [[repo_node]] or the replica set. *)

val metrics : t -> Metrics.t
(** Cluster-wide registry: unlabelled totals plus
    [cluster.<engine>.<counter>] per-engine breakdowns
    ({!Metrics.attach_labelled}). *)

val engines : t -> (string * Engine.t) list

val engine_ids : t -> string list

val participants : t -> (string * Participant.t) list
(** Per-node transaction participants (engines, hosts and the repository
    node alike) — inspected by the fault-exploration oracles. *)

val managers : t -> (string * Txn.manager) list

val engine : t -> string -> Engine.t

(** {1 Placement and launch} *)

val launch :
  t ->
  script:string ->
  root:string ->
  inputs:(string * Value.obj) list ->
  (string * string, string) result
(** Route a launch through the placement policy. Returns
    [(iid, engine_node)]. The assignment is recorded in the local
    directory cache immediately and persisted through the repository
    service asynchronously. When the placed engine refuses the launch
    (for instance [Error "engine <id> is down"]) nothing is recorded and
    the next launch reuses the same instance id and placement slot. *)

val owner : t -> string -> string option
(** Which engine owns this instance (router's directory cache)? *)

val owner_rpc :
  t -> src:string -> iid:string -> ((string option, string) result -> unit) -> unit
(** The durable answer, over RPC from any attached node [src] to the
    repository's placement directory. *)

val placements : t -> (string * string) list
(** All cached [(iid, engine)] assignments, sorted. *)

(** {1 Routed queries and admin} *)

val status : t -> string -> Wstate.status option

val on_complete : t -> string -> (Wstate.status -> unit) -> unit

val policy_budgets : t -> string -> Instate.policy_budget list
(** Recovery-policy budget counters of the owning engine's instance
    (attempts used, backoff remaining, compensations fired); empty when
    the instance is unknown. *)

val policy_budgets_rpc :
  t ->
  src:string ->
  iid:string ->
  ((Instate.policy_budget list, string) result -> unit) ->
  unit
(** The same counters resolved entirely over the fabric: the owner is
    looked up in the repository's placement directory, then the owning
    engine's [wf.admin.policy] service answers. *)

val instances_of : t -> string -> string list
(** Instance ids owned by the engine on the given node. *)

val per_engine_instances : t -> (string * int) list

val dispatches_total : t -> int
(** Aggregate dispatches across all engines. *)

val completions_total : t -> int

(** {1 Driving the simulation} *)

val run : ?until:Sim.time -> t -> unit

val crash : t -> string -> unit

val recover : t -> string -> unit

val apply_faults : t -> Fault.t -> unit
(** Apply a declarative fault plan by node id (see
    {!Testbed.apply_faults}). *)
