(** Volatile per-instance state: the in-memory mirror of one workflow
    instance's persistent {!Wstate} rows, plus the bookkeeping of the
    evaluation pump.

    The mirror tables change only through {!apply}, which applies one
    {!Wstate.row}: the engine applies the typed rows of an action when
    it decides them, the same rows it then persists, and recovery
    ({!load_committed}) applies the decoded committed rows to a fresh
    instance. The one other change is {!trim_concluded} (and
    {!release}) dropping a concluded instance's tables, which recovery
    does too. So the mirror holds the instance's decided state: within
    a virtual instant it is ahead of the committed store, and once the
    instant's write set commits it is what recovery rebuilds from the
    store. A crash drops the mirror together with the uncommitted write
    set. The translation of a scheduler {!Sched.action} into rows lives
    here too, so the engine proper only orchestrates. The pump's own
    state ([timers_armed], [alarms], [inflight], [concluding],
    [pending]) is volatile and is not rows. *)

(** A queued timer that captures the instance. *)
type alarm =
  | Watchdog of int * Sim.handle  (** a running leaf's watchdog, with the attempt it guards *)
  | Backoff of Sim.handle  (** a policy backoff's re-dispatch *)
  | Timer of string * Sim.handle  (** the timeout of the named input set *)

type t = {
  iid : string;
  mutable script_text : string;
  mutable schema : Schema.task;
  mutable status : Wstate.status;
  mutable external_inputs : (string * Value.obj) list;
  states : (string, Wstate.task_state) Hashtbl.t;
  chosen : (string, Wstate.chosen) Hashtbl.t;
  marks : (string, Wstate.marks) Hashtbl.t;
  repeats : (string, Wstate.repeat) Hashtbl.t;
  timers : (string * string, unit) Hashtbl.t;  (** fired; key = path, input set *)
  timer_arms : (string * string, Sim.time) Hashtbl.t;  (** persisted deadlines *)
  timers_armed : (string * string, int) Hashtbl.t;  (** volatile; value = attempt armed for *)
  backoffs : (string, int * Sim.time) Hashtbl.t;
      (** pending policy backoffs: attempt waiting, absolute fire time *)
  compensated : (string, unit) Hashtbl.t;
      (** aborted paths whose compensation is durably recorded *)
  alarms : (string, alarm list) Hashtbl.t;
      (** volatile; the queued timers of each path *)
  mutable callbacks : (Wstate.status -> unit) list;
  mutable hseq : int;  (** next persistent-history index *)
  mutable inflight : bool;
  mutable concluding : bool;
      (** the instance's conclusion is decided and not yet committed *)
  mutable pending : Sched.dirty;
      (** paths changed since the last evaluation pass — the seed for
          the incremental {!Sched.scan_from} *)
  mutable index : Sched.index option;
      (** cached reverse-dependency index; reconfiguration resets it *)
}

val create :
  iid:string ->
  script_text:string ->
  schema:Schema.task ->
  status:Wstate.status ->
  external_inputs:(string * Value.obj) list ->
  t

val reset : t -> t
(** Same identity/script/inputs, running status, empty mirrors — for
    re-persisting a launch whose transaction was lost to a crash. *)

(** {1 Mirror accessors} (no record = implicitly Waiting, attempt 1) *)

val get_state : t -> Wstate.path -> Wstate.task_state option

val get_chosen : t -> Wstate.path -> Wstate.chosen option

val get_marks : t -> Wstate.path -> Wstate.marks

val is_compensated : t -> Wstate.path -> bool

val task_states : t -> (string * Wstate.task_state) list
(** Every task record, as ("/"-joined path, state), sorted by path. *)

type policy_budget = {
  pb_path : string;  (** "/"-joined task path *)
  pb_attempts : int;  (** execution attempts used so far *)
  pb_backoff_remaining : Sim.time;
      (** µs until the pending policy retry fires; [0] when no backoff
          is pending *)
  pb_compensated : bool;  (** the compensation handler has fired *)
}

val policy_budgets : t -> now:Sim.time -> policy_budget list
(** Per-task recovery-policy budget counters, sorted by path: how much
    of each [retry]/[backoff] budget is spent and which compensations
    have fired. Served remotely by [Admin.service_policy]. *)

val pending_backoffs : t -> (Wstate.path * int * Sim.time) list
(** All pending policy backoffs — recovery resumes each one's remaining
    wait against the persisted attempt counter. *)

(** {1 Rows} *)

val apply : t -> Wstate.row -> unit
(** The one writer of the mirror tables: a put replaces and a delete
    removes the field's entry; {!Wstate.Meta} sets [status] and
    {!Wstate.Reconf} [script_text]. A {!Wstate.History} row changes
    nothing: {!history_row} consumed its index when it built the row.
    {!Wstate.Dir} is the engine's, not the instance's. *)

val load_committed : t -> read:(string -> string option) -> keys:string list -> unit
(** Recovery: {!apply} the decoded row of each committed key of the
    instance ([read] fetches a committed value; keys of other instances
    are ignored) — the rows the engine applied when it decided them.
    History keys only advance [hseq]; their values are never read. *)

val history_row : t -> now:Sim.time -> kind:string -> detail:string -> Wstate.row
(** The next persistent history row (consumes [hseq]). *)

val action_rows :
  t -> now:Sim.time -> deadline_of:(Schema.task -> Sim.time) -> Sched.action -> Wstate.row list
(** The rows realising one action, its history row last, built on the
    mirror as decided so far: a task's marks row extends its marks in
    the mirror, a compound repeat deletes its scope's rows. [deadline_of]
    gives a task's watchdog span (engine config + ["deadline"] kv). *)

val view : t -> effective:(Schema.task -> Sched.effective) -> Sched.view
(** Snapshot view for the pure scheduler core. Build fresh per pass —
    [v_running] is captured at call time. *)

val meta : t -> status:Wstate.status -> Wstate.meta
(** The instance's durable meta record at the given status. *)

val index : t -> effective:(Schema.task -> Sched.effective) -> Sched.index
(** The instance's reverse-dependency index, built on first use. *)

val find_node : t -> effective:(Schema.task -> Sched.effective) -> Wstate.path -> Schema.task option
(** The schema node at an absolute path (rooted at the instance's
    top-level task), descending through bound sub-workflows: a lookup in
    {!index}. *)

val running_leaves :
  t ->
  effective:(Schema.task -> Sched.effective) ->
  (Wstate.path * Schema.task * int * Sim.time) list
(** Running leaf executions (path, task, attempt, watchdog deadline):
    recovery re-arms one watchdog per entry, and a running instance with
    none whose root is unfinished is quiescent. *)

(** {1 Queued timers}

    Every engine timer that captures the instance is kept here and
    cancelled when the work it guards ends, so a finished attempt or
    instance leaves nothing in the simulator queue. *)

val set_alarm : t -> Sim.t -> Wstate.path -> alarm -> unit
(** File a backoff or input-set timer under the path, cancelling the
    one of the same kind (for a timer, of the same input set) it
    replaces. *)

val set_watchdog : t -> Sim.t -> Wstate.path -> attempt:int -> (unit -> Sim.handle) -> unit
(** [set_watchdog inst sim path ~attempt schedule] makes [schedule ()]
    the path's one queued watchdog, cancelling the previous attempt's. A
    watchdog still queued for the same [attempt] is kept and [schedule]
    is not called: after recovery it guards the attempt's persisted
    deadline, which the resumed backoff's dispatch can only push later. *)

val cancel_timers_at : ?below:bool -> t -> Sim.t -> Wstate.path -> unit
(** Cancel the path's queued timers — with [~below:true] also those of
    every path under it, and forget which of the path's and its
    subtree's input-set timers were armed ([timers_armed]). *)

val cancel_timers : t -> Sim.t -> unit
(** Cancel every queued timer of the instance (conclusion, crash). *)

val queued_watchdogs : t -> (string * int) list
(** Watchdogs still queued, as (path key, attempt), sorted. *)

val has_timers : t -> bool

val without_timers : t -> t
(** The instance itself if it holds no timer, else a copy with an empty
    timer table: for a residency walk that should stop at the mirror,
    since a queued timer's closure reaches the whole engine. *)

(** {1 Bounding memory after conclusion} *)

val trim_concluded : t -> unit
(** Drop the state that only serves a running evaluation pump (timer
    records, armed-timer bookkeeping, scan index, pending set). Always
    applied when an instance concludes. *)

val release : t -> unit
(** {!trim_concluded} plus the mirror tables themselves: a concluded
    instance then costs O(1) resident words. Introspection accessors
    answer empty afterwards; the committed store is untouched. Applied
    on conclusion when the engine runs with [retain_concluded = false]. *)
