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

val task_live : view -> Wstate.path -> bool
(** Every enclosing compound scope is still Running and the instance
    itself is running — the fence every watchdog, retry and late report
    must pass. *)

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

(** {1 Readiness}

    The §3 availability rules for the children of one running compound
    scope. Both verdicts stop at the first missing object. The scans
    below use these; they are exposed for the tests' resolve-everything
    reference. *)

type ctx
(** The context in which the children of one running scope are
    evaluated: its chosen inputs and which names are siblings. *)

val scope_ctx : view -> scope:Wstate.path -> alias:string -> children:Schema.task list -> ctx
(** The context of the running compound at [scope], whose children are
    [children] and whose own name in sources is [alias]. *)

val resolve_input :
  ctx -> path:Wstate.path -> set:string -> Schema.input_object -> Value.obj option
(** One input object of input set [set] of the task at [path]. A
    source-less [Timer] object is available once that set's timer
    fired. *)

val obj_source_value : ctx -> Schema.obj_source -> Value.obj option

val notif_groups_satisfied : ctx -> Schema.notif_source list list -> bool

val try_input_set :
  ctx ->
  path:Wstate.path ->
  Schema.input_set ->
  [ `Yes of string * (string * Value.obj) list | `Arm_timer of string | `No ]
(** [`Yes] with the resolved objects in declaration order when the
    notifications hold and every object resolves; otherwise
    [`Arm_timer] when some source-less timer of the set is unfired, and
    [`No] if none is. *)

val binding_ready : ctx -> Schema.binding -> (string * Value.obj) list option
(** The objects of an output binding, when its notifications hold and
    every object resolves. *)

(** {1 Scans} *)

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
    change re-evaluates every child). It also holds every scope's
    children by name. One index serves one instance: {!scan_from}
    stamps it. Rebuild after reconfiguration. *)

val build_index : effective:(Schema.task -> effective) -> Schema.task -> index

val find_task : index -> Wstate.path -> Schema.task option
(** The task at an absolute path (root task first), descending through
    bound sub-workflows as they were when the index was built. One table
    probe per path segment. *)

(** The accumulated change set between two evaluation passes. *)
type dirty = All | Paths of Wstate.path list

val no_dirty : dirty

val add_dirty : dirty -> Wstate.path list -> dirty
(** [All] absorbs everything; path lists concatenate (deduplicated at
    scan time). *)

val scan_from : index -> view -> root:Schema.task -> dirty:dirty -> action list
(** The incremental pass: evaluate only the dirty paths and their
    indexed dependents. [scan_from idx v ~root ~dirty:All] is exactly
    [scan v ~root]; with [dirty:(Paths ps)] it returns the same actions
    the full scan would, provided every store change since the previous
    pass is covered by [ps]. A scope visits only the children that are
    candidates or lie above one, so the cost of a pass does not grow
    with the width of the scopes it crosses. *)

val action_path : action -> Wstate.path
(** The store path an action mutates — what the next {!scan_from} pass
    must find in its dirty set. *)

val prioritise : action list -> action list
(** Reorder a pass's actions for dispatch: non-starts first in scan
    order, then starts by descending ["priority"] implementation kv
    (stable). *)

(** {1 Output shaping and implementation kvs} *)

val impl_ms : Schema.task -> key:string -> int option
(** An integer implementation binding interpreted as milliseconds
    (["deadline"], ["timeout"]); the caller converts to virtual time. *)

(** {1 Failure mapping} *)

val fail_action : Schema.task -> path:Wstate.path -> attempt:int -> reason:string -> action
(** Fig 3's system-failure rule: an abort outcome when the taskclass
    declares one, [Fail_task] otherwise. *)

(** {1 Report classification} *)

(** How the effect layer must react to a task host's report. *)
type decision =
  | D_retry  (** system failure: re-dispatch (bounded by {!Policy.after_failure}) *)
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
