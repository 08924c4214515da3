(** The pure scheduling core of the execution service.

    Everything the paper's §3 scheduler decides — which input set of a
    waiting task is satisfied (ordered alternatives, first-available
    wins; first-declared set wins), which compound output binding fires,
    mark/repeat/outcome propagation, scope liveness, and how a task
    report maps onto the transition rules of Fig 3 — expressed as pure
    functions over {!Wstate} snapshots.

    This module deliberately has {e no} dependency on [Sim], [Rpc] or
    [Txn]: state comes in through a {!view} (closures over whatever
    mirror the caller keeps), decisions come out as {!action}s and
    {!decision}s that the effect layer ({!Dispatch} / {!Engine})
    persists and executes. Times are plain [int]s (virtual
    microseconds). Purity is what makes the selection logic reusable
    (parallel dispatch batches, alternative backends) and directly
    property-testable. *)

(** What a task's implementation binding resolves to. Resolution
    consults the registry, so it is injected via {!view.v_effective}. *)
type effective =
  | E_fn of string  (** a leaf implementation, dispatched by code name *)
  | E_compound of { children : Schema.task list; bindings : Schema.binding list; alias : string }
  | E_missing of string  (** no usable binding; the reason *)

(** Read-only view of one instance. [None]/[[]] answers mean "no record
    yet" (implicitly Waiting, attempt 1). *)
type view = {
  v_effective : Schema.task -> effective;
  v_state : Wstate.path -> Wstate.task_state option;
  v_chosen : Wstate.path -> Wstate.chosen option;
  v_marks : Wstate.path -> (string * (string * Value.obj) list) list;
  v_repeat : Wstate.path -> (string * (string * Value.obj) list) option;
  v_timer_fired : Wstate.path -> set:string -> bool;
  v_external : string -> Value.obj option;  (** root-level external inputs *)
  v_running : bool;  (** instance status is [Wf_running] *)
}

val waiting_attempt : view -> Wstate.path -> int option
(** The attempt a waiting task would start as; [None] if not waiting. *)

val running_attempt : view -> Wstate.path -> int

val parent_path : Wstate.path -> Wstate.path
(** All but the last path segment. *)

val scope_open : view -> Wstate.path -> bool
(** Every enclosing compound scope is still Running. *)

val task_live : view -> Wstate.path -> bool
(** {!scope_open} and the instance itself is running — the fence every
    watchdog, retry and late report must pass. *)

val find_node :
  effective:(Schema.task -> effective) -> Schema.task -> string list -> Schema.task option
(** Navigate a schema along a path of task names, expanding dynamically
    bound sub-workflows. The first path element is a child of [task]. *)

(** {1 Decisions} *)

(** One scheduling decision. [Arm_timer] is volatile (the effect layer
    schedules the timeout); the rest are persisted atomically. *)
type action =
  | Start of {
      a_path : Wstate.path;
      a_task : Schema.task;
      a_set : string;
      a_inputs : (string * Value.obj) list;
      a_attempt : int;
    }
  | Fire_mark of { a_path : Wstate.path; a_name : string; a_objects : (string * Value.obj) list }
  | Do_repeat of {
      a_path : Wstate.path;
      a_name : string;
      a_objects : (string * Value.obj) list;
      a_attempt : int;
    }
  | Complete of {
      a_path : Wstate.path;
      a_name : string;
      a_kind : Ast.output_kind;
      a_objects : (string * Value.obj) list;
      a_attempt : int;
    }
  | Fail_task of { a_path : Wstate.path; a_reason : string }
  | Arm_timer of { a_path : Wstate.path; a_set : string; a_task : Schema.task; a_attempt : int }

val scan : view -> root:Schema.task -> action list
(** One full evaluation pass over the instance tree; actions come back
    in declaration order. Pure: same view, same actions. The engine
    runs {!scan_from}; this full rescan is the reference that the tests
    check {!scan_from} against on every pass and that the benchmark's
    scan probe times. *)

(** {1 Incremental propagation}

    Push-based scheduling: instead of rescanning the whole instance on
    every notification, a {!index} built once per instance records which
    paths' readiness each store path can affect, and {!scan_from}
    evaluates only the dependents of the paths that actually changed.
    The pruned pass emits exactly the actions the full {!scan} would —
    a non-candidate's inputs are unchanged since the previous pass, so
    its readiness cannot have changed either. *)

type index
(** Reverse-dependency index over one (expanded) schema: producer path
    → the paths whose input sets or output bindings read it, plus each
    compound scope → its constituents (a scope start, repeat or chosen
    change re-evaluates every child). Rebuild after reconfiguration. *)

val build_index : effective:(Schema.task -> effective) -> Schema.task -> index

(** The accumulated change set between two evaluation passes. *)
type dirty = All | Paths of Wstate.path list

val no_dirty : dirty

val add_dirty : dirty -> Wstate.path list -> dirty
(** [All] absorbs everything; path lists concatenate (deduplicated at
    scan time). *)

val is_clean : dirty -> bool

val scan_from : index -> view -> root:Schema.task -> dirty:dirty -> action list
(** The incremental pass: evaluate only the dirty paths and their
    indexed dependents. [scan_from idx v ~root ~dirty:All] is exactly
    [scan v ~root]; with [dirty:(Paths ps)] it returns the same actions
    the full scan would, provided every store change since the previous
    pass is covered by [ps]. *)

val action_path : action -> Wstate.path
(** The store path an action mutates — what the next {!scan_from} pass
    must find in its dirty set. *)

val prioritise : action list -> action list
(** Reorder a pass's actions for dispatch: non-starts first in scan
    order, then starts by descending ["priority"] implementation kv
    (stable). *)

(** {1 Output shaping and implementation kvs} *)

val wrap_outputs :
  Schema.task -> output:string -> (string * Value.t) list -> (string * Value.obj) list
(** Coerce an implementation's raw payloads onto the declared output
    objects (missing ones become [Unit] of the declared class). *)

val impl_ms : Schema.task -> key:string -> int option
(** An integer implementation binding interpreted as milliseconds
    (["deadline"], ["timeout"]); the caller converts to virtual time. *)

val impl_priority : Schema.task -> int

val impl_abort_retries : Schema.task -> int
(** ["retries"] kv: spontaneous abort outcomes absorbed by restarting. *)

(** {1 Resolved recovery policy}

    The compiled {!Schema.policy} of a task merged with the engine's
    config-seeded defaults. The durable per-path attempt counter drives
    everything: the ranked implementation codes partition the attempt
    axis into bands of [rp_per_code] attempts, so code selection — and
    therefore which alternative a recovered engine redispatches — is a
    pure function of the counter that {!Wstate.Running} already
    persists. With [rp_declared = false] the record reproduces the
    legacy global-knob behaviour exactly (one code,
    [default_max_attempts] attempts, no backoff). *)
type rpolicy = {
  rp_codes : string list;  (** ranked codes: primary, alternatives, substitute *)
  rp_per_code : int;  (** attempts allowed per code = 1 + retry count *)
  rp_base_total : int;  (** failure-driven ceiling: primary + alternatives *)
  rp_grand_total : int;  (** absolute ceiling, incl. the substitute band *)
  rp_backoff_ms : int;
  rp_jitter_ms : int;
  rp_backoff_max_ms : int option;
  rp_timeout_ms : int option;
  rp_on_timeout : Ast.timeout_action;
  rp_compensate : string option;
  rp_declared : bool;
}

val resolve_policy : Schema.task -> primary:string -> default_max_attempts:int -> rpolicy

val policy_band : rpolicy -> attempt:int -> int
(** 0-based index into [rp_codes] of the band [attempt] falls in. *)

val policy_code : rpolicy -> attempt:int -> string
(** The implementation code [attempt] must dispatch (last band is
    sticky for out-of-range attempts). *)

val policy_exhausted : rpolicy -> attempt:int -> bool
(** [attempt] just failed — is the budget spent? Reproduces the legacy
    [attempt >= system_max_attempts] check when undeclared. *)

val policy_backoff_ms : rpolicy -> attempt:int -> int
(** Delay in ms before dispatching [attempt]: 0 for the first attempt
    of a band, else [min cap (base * 2^(k-1))] for the k-th retry. *)

val policy_jitter_ms :
  rpolicy -> salt:string -> iid:string -> path:string list -> attempt:int -> int
(** Deterministic jitter in [0, rp_jitter_ms): a pure hash of
    (salt, iid, path, attempt), never a runtime rng draw — so the same
    seed reproduces the same spread regardless of scheduling
    interleaving. 0 when the policy declares no [jitter]. *)

val policy_backoff_jittered_ms :
  rpolicy -> salt:string -> iid:string -> path:string list -> attempt:int -> int
(** {!policy_backoff_ms} plus {!policy_jitter_ms}; immediate attempts
    (backoff 0) stay immediate — there is no delay to spread. *)

val policy_next_band_start : rpolicy -> attempt:int -> int
(** First attempt of the band after [attempt]'s — the jump target of
    [timeout ... then alternative]. *)

val policy_substitute_start : rpolicy -> int option
(** First attempt of the trailing substitute band, when the policy
    declares [timeout ... then substitute]. *)

val fail_action : Schema.task -> path:Wstate.path -> attempt:int -> reason:string -> action
(** Fig 3's system-failure rule: an abort outcome when the taskclass
    declares one, [Fail_task] otherwise. *)

(** {1 Report classification} *)

val impl_error_prefix : string
(** Outputs with this prefix signal a host-side implementation crash. *)

(** How the effect layer must react to a task host's report. *)
type decision =
  | D_retry  (** system failure: re-dispatch (bounded by the engine) *)
  | D_auto_restart  (** abort outcome absorbed by the ["retries"] kv *)
  | D_fail of string  (** protocol violation: map through {!fail_action} *)
  | D_apply of action  (** persist and apply *)
  | D_ignore  (** duplicate (at-least-once delivery) *)

val report_decision :
  view ->
  task:Schema.task ->
  path:Wstate.path ->
  attempt:int ->
  is_mark:bool ->
  output:string ->
  objects:(string * Value.t) list ->
  decision
(** Classify a report against Fig 3. Notably: a task that has released a
    mark may not abort — an abort outcome arriving after any mark yields
    [D_apply (Fail_task _)], never a completion. *)
