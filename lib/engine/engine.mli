(** The workflow execution service (paper §3, Fig 4): its client API.

    One engine runs on a node of the simulated cluster and coordinates
    workflow instances. Their dependencies and task results live in
    persistent objects updated under atomic transactions. {!Pump}, the
    evaluation loop, schedules tasks whose input sets become satisfied,
    dispatches implementations to task hosts and enforces the transition
    rules of Fig 3, with retries, timeouts and compensation. After a
    crash, {!Recovery} rebuilds every instance from the store, and
    completions that raced the crash are re-obtained by re-dispatching
    (task hosts are at-least-once; atomic tasks make that safe). This
    module holds the client operations, the crash and recover hooks and
    introspection. *)

type config = Pump.config = {
  default_deadline : Sim.time;
      (** dispatch-to-completion watchdog of a task without a declared
          [timeout]; a declared [recovery] section overrides it per task.
          A dispatch's RPC send budget (8 sends) and the wait of a timer
          input set without a ["timeout"] kv (10 s) are fixed. *)
  system_max_attempts : int;
      (** total execution attempts before the task fails; a declared
          [retry n] clause overrides the budget per task (per
          implementation code, see {!Policy}). *)
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
      (** keep every event this engine publishes, with its time, for
          {!trace} (default true). The log grows with every engine
          event, so high-volume capacity runs turn this off; {!trace}
          then returns [[]]. Metrics and the durable history do not
          depend on it. *)
}

val default_config : config

type t

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

val node : t -> Node.t

val now : t -> Sim.time
(** The engine's virtual clock. *)

val trace : t -> (Sim.time * Event.t) list
(** The events this engine published itself, stamped with their virtual
    time, in emission order; [[]] when [config.trace] is off. That is
    every [Wf_*], task transition, watchdog, timer, policy and recovery
    event; [Task_dispatched], [Persist_batched] and [Txn_failed] come
    from the dispatch layer and, like RPC and transaction events, are on
    the {!Sim.events} bus only. Volatile: a crash does not clear it, and
    it is not persisted either — {!history} is the durable record.
    {!Gantt.render} draws the run's timeline from it. *)

val metrics : t -> Metrics.t
(** The engine's metrics registry: counters and histograms accumulated
    from the typed event bus (see {!Event} and {!Metrics.attach}). *)

val attach_host : t -> Node.t -> Exec_host.t
(** Make another node able to execute task implementations (scripts
    place tasks with [implementation { "location" is "node" }]). *)

(** {1 Instances}

    The client operations {!launch}, {!cancel}, {!abort_task}, {!gc} and
    {!reconfigure} refuse to run on a crashed engine: they answer
    [Error "engine <id> is down"] and write nothing. *)

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
(** Every instance of the engine's directory, in launch order; a launch
    that recovery repeats goes last, and one whose stored script no
    longer compiles stays listed. *)

val mirror : t -> string -> Instate.t option
(** The instance's live in-memory mirror; read it with the {!Instate}
    accessors ([get_state], [task_states], [get_marks],
    [queued_watchdogs], [policy_budgets]). [None] for an unknown or
    collected instance. *)

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
    [Wf_failed ("cancelled: " ^ reason)]; running constituents are
    abandoned (their scopes are closed, so watchdogs and late reports are
    ignored). It concludes exactly like a finished instance: an
    [instance] history row, the completion callbacks, and the
    [retain_concluded] memory bound. Refused once the instance's
    conclusion is decided, even before it commits. *)

val abort_task : t -> string -> path:string list -> ((unit, string) result -> unit) -> unit
(** User-forced abort of one waiting or running task: it terminates in
    its first declared abort outcome (empty objects) when its taskclass
    has one — visible to fan-ins exactly like a spontaneous abort — and
    in [Failed] otherwise. *)

val compact : t -> unit
(** Trim the engine node's transaction logs: drop decided transactions
    from the intentions log and compact the coordinator's decision log.
    The object store bounds its own WAL ({!Kvstore}); this also takes
    its snapshot early. Run periodically in long-lived deployments,
    typically after {!gc}. *)

val gc : t -> string -> ((unit, string) result -> unit) -> unit
(** Remove a {e finished} instance's persistent records (one
    transaction) and forget it. Refused while the instance is running
    or its conclusion has not committed.
    Pair with {!compact} to keep the transaction logs bounded in
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

val policy_retries_total : t -> int
(** Retries scheduled by {e declared} recovery policies (the default
    policy's retries count only in {!system_retries_total}). *)

val reconfigs_total : t -> int

val recoveries_total : t -> int

val observe_residency : t -> int
(** Sample resident memory: reachable words from the live instance
    mirrors ([Obj.reachable_words]). Walking the heap is proportional
    to resident state — call it at measurement points, not per event. *)
