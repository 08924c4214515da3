(** The workflow execution service (paper §3, Fig 4).

    One engine runs on a node of the simulated cluster and coordinates
    workflow instances: it records inter-task dependencies and task
    results in persistent objects updated under atomic transactions,
    schedules tasks whose input sets become satisfied (ordered
    alternatives, first-available wins; first-declared input set wins),
    dispatches implementations to task hosts, enforces the task
    transition rules of Fig 3 (outcome / abort outcome / repeat outcome
    / mark), expands compound tasks into nested scopes, retries tasks a
    bounded number of times on system failures, fires input-set
    timeouts, and applies dynamic reconfiguration atomically.

    Fault tolerance: if the engine's node crashes, recovery rebuilds all
    instance state from the store and resumes — completions that raced
    the crash are re-obtained by re-dispatching the task (task hosts are
    at-least-once; atomic tasks make that safe). If a task host crashes
    mid-execution, the per-dispatch watchdog re-dispatches. *)

type config = {
  default_deadline : Sim.time;
      (** dispatch-to-completion watchdog. Alias: seeds
          {!default_policy.dp_deadline} at engine creation — tasks with a
          declared [recovery] section override it per task. *)
  dispatch_rpc_retries : int;
      (** Alias: seeds {!default_policy.dp_rpc_retries}. *)
  system_max_attempts : int;
      (** re-dispatches before the task fails. Alias: seeds
          {!default_policy.dp_max_attempts}; a declared [retry n] clause
          overrides the budget per task (per implementation code). *)
  default_timeout : Sim.time;  (** timer input sets without a ["timeout"] kv *)
  dispatch_overhead : Sim.time;
      (** engine CPU cost per dispatch, serialised per engine (0 =
          free); models the coordinator as a contended resource so a
          cluster of engines can out-dispatch a single one *)
  retain_concluded : bool;
      (** keep a concluded instance's task-state mirror in memory for
          post-hoc inspection (default true, the historical behaviour;
          auxiliary scan state is always dropped at conclusion). [false]
          additionally releases the mirrors, bounding resident memory by
          the {e live} instance count — capacity runs want this. Durable
          records are unaffected either way ({!gc} removes those). *)
  trace : bool;
      (** subscribe the legacy human-readable trace to the event bus
          (default true). Trace lines are rendered and retained for
          every engine-originated event, so high-volume capacity runs
          turn this off; {!trace} then returns an empty trace. *)
}

val default_config : config

(** The config-seeded default recovery policy — what a task without a
    [recovery { ... }] section executes under. Compiled once at engine
    creation from the three config aliases above; dispatch, watchdog and
    retry paths consult policy records only, never the raw config. *)
type default_policy = {
  dp_deadline : Sim.time;  (** per-attempt watchdog deadline *)
  dp_rpc_retries : int;  (** RPC send budget per dispatch *)
  dp_max_attempts : int;  (** total execution attempts per task *)
}

type t

val default_policy : t -> default_policy

val create :
  ?config:config ->
  rpc:Rpc.t ->
  node:Node.t ->
  mgr:Txn.manager ->
  participant:Participant.t ->
  registry:Registry.t ->
  unit ->
  t
(** The node must already be RPC-attached with a participant and
    manager. Installs the completion/mark services and crash/recovery
    hooks, and attaches a task host on the engine node itself. *)

val node_id : t -> string

val node : t -> Node.t

val rpc : t -> Rpc.t

val trace : t -> Trace.t

val metrics : t -> Metrics.t
(** The engine's metrics registry: counters and histograms accumulated
    from the typed event bus (see {!Event} and {!Metrics.attach}). Dump
    with {!Metrics.to_json}. *)

val registry : t -> Registry.t

val attach_host : t -> Node.t -> Exec_host.t
(** Make another node able to execute task implementations (scripts
    place tasks with [implementation { "location" is "node" }]). *)

(** {1 Instances} *)

val launch :
  ?iid:string ->
  t ->
  script:string ->
  root:string ->
  inputs:(string * Value.obj) list ->
  (string, string) result
(** Parse/expand/validate [script], resolve [root], persist the instance
    and start it. Returns the instance id. The run proceeds as the
    simulation advances. [iid] overrides the engine-generated instance
    id — the cluster layer uses this to route by hash-of-iid and to keep
    ids unique across engines; a duplicate id is refused, and so is an
    id containing [':'] or equal to ["dir"] (its store-key prefix
    [wf:<iid>:] would cover another instance's or the directory's
    rows). *)

val status : t -> string -> Wstate.status option

val on_complete : t -> string -> (Wstate.status -> unit) -> unit
(** Volatile callback (lost on engine crash — poll {!status} for a
    durable answer). Fires immediately if the instance already
    finished. *)

val instances : t -> string list

val task_state : t -> string -> path:string list -> Wstate.task_state option
(** [path] is the chain of task names from the root, e.g.
    [["processOrderApplication"; "dispatch"]]. *)

val task_states : t -> string -> (string * Wstate.task_state) list
(** All task records of an instance, sorted by path. *)

val marks_of : t -> string -> path:string list -> (string * (string * Value.obj) list) list
(** Marks emitted so far by the task at [path]. *)

type policy_budget = {
  pb_path : string;  (** "/"-joined task path *)
  pb_attempts : int;  (** execution attempts used so far *)
  pb_backoff_remaining : Sim.time;
      (** µs until the pending policy retry fires; [0] when no backoff
          is pending *)
  pb_compensated : bool;  (** the compensation handler has fired *)
}

val policy_budgets : t -> string -> policy_budget list
(** Per-task recovery-policy budget counters for one instance, sorted
    by path: how much of each [retry]/[backoff] budget is spent and
    which compensations have fired. Served remotely by
    [Admin.service_policy]. *)

val history : t -> string -> (Sim.time * string * string) list
(** The instance's {e persistent} audit log (at, kind, detail), written
    in the same transactions as the state changes it describes — unlike
    {!trace}, it survives engine crashes and is what the monitoring side
    of Fig 4's administrative tools reads. Collected with the instance
    by {!gc}. *)

val histories : t -> (string * (Sim.time * string * string) list) list
(** {!history} of every instance, in {!instances} order, from one read
    of the committed key set — O(store + instances · log store) where
    per-instance {!history} calls cost O(instances · store). *)

val quiescent : t -> string -> bool
(** No task of the instance is running and the instance is not done:
    the instance is stuck (e.g. a failed task with no alternatives). *)

val cancel : t -> string -> reason:string -> ((unit, string) result -> unit) -> unit
(** User-forced abort of a whole running instance (Fig 3 names the user
    forcing an abort as a legal transition): the instance completes with
    [Wf_failed reason]; running constituents are abandoned (their scopes
    are closed, so watchdogs and late reports are ignored). *)

val abort_task : t -> string -> path:string list -> ((unit, string) result -> unit) -> unit
(** User-forced abort of one waiting or running task: it terminates in
    its first declared abort outcome (empty objects) when its taskclass
    has one — visible to fan-ins exactly like a spontaneous abort — and
    in [Failed] otherwise. *)

val compact : t -> unit
(** Bound the engine node's stable storage: checkpoint the object store
    (collapse its WAL to a snapshot), drop decided transactions from the
    intentions log and compact the coordinator's decision log. Run
    periodically in long-lived deployments, typically after {!gc}. *)

val gc : t -> string -> ((unit, string) result -> unit) -> unit
(** Remove a {e finished} instance's persistent records (one
    transaction) and forget it. Refused while the instance is running.
    Pair with {!Participant.checkpoint} to keep the stores bounded in
    long-lived deployments. *)

(** {1 Dynamic reconfiguration (paper §3)} *)

val reconfigure :
  t ->
  string ->
  transform:(Ast.script -> (Ast.script, string) result) ->
  ((unit, string) result -> unit) ->
  unit
(** Apply an AST transform to the instance's {e current} script,
    re-validate, persist the new script and swap it in, atomically with
    respect to normal processing. See {!Reconfig} for standard
    transforms (add/remove tasks and dependencies). *)

(** {1 Introspection counters} *)

val dispatches_total : t -> int

val completions_total : t -> int

val system_retries_total : t -> int

val marks_total : t -> int

val policy_retries_total : t -> int
(** Retries scheduled by {e declared} recovery policies (the default
    policy's retries count only in {!system_retries_total}). *)

val policy_substitutions_total : t -> int
(** Switches to a ranked alternative or timeout substitute. *)

val policy_compensations_total : t -> int
(** Compensation handlers launched after abort outcomes. *)

val reconfigs_total : t -> int

val recoveries_total : t -> int

val observe_residency : t -> int
(** Sample resident memory: reachable words from the live instance
    mirrors ([Obj.reachable_words]), published as the
    [engine.resident_words] gauge (alongside [engine.ready_queue_len])
    in {!metrics}, and returned. Walking the heap is proportional to
    resident state — call it at measurement points, not per event. *)
