(** Volatile per-instance state: the in-memory mirror of one workflow
    instance's persistent {!Wstate} records, plus the bookkeeping flags
    of the evaluation pump.

    The mirror tables shadow exactly what is in the committed store (the
    engine updates both in lock-step: store writes under a transaction,
    mirror on commit); {!load_committed} rebuilds them from committed
    keys after a crash. The translation of a scheduler {!Sched.action}
    into transactional writes, history rows and mirror updates lives
    here too, so the engine proper only orchestrates. *)

type t = {
  iid : string;
  mutable script_text : string;
  mutable schema : Schema.task;
  mutable status : Wstate.status;
  mutable external_inputs : (string * Value.obj) list;
  states : (string, Wstate.task_state) Hashtbl.t;
  chosen : (string, Wstate.chosen) Hashtbl.t;
  marks : (string, (string * (string * Value.obj) list) list) Hashtbl.t;
  repeats : (string, string * (string * Value.obj) list) Hashtbl.t;
  timers : (string, unit) Hashtbl.t;  (** fired; key = ["path|set"] *)
  timer_arms : (string, Sim.time) Hashtbl.t;
      (** persisted deadlines; key = ["path|set"] *)
  timers_armed : (string, int) Hashtbl.t;
      (** volatile; value = attempt armed for *)
  backoffs : (string, int * Sim.time) Hashtbl.t;
      (** pending policy backoffs: attempt waiting, absolute fire time *)
  compensated : (string, unit) Hashtbl.t;
      (** aborted paths whose compensation is durably recorded *)
  mutable callbacks : (Wstate.status -> unit) list;
  mutable hseq : int;  (** next persistent-history index *)
  mutable dirty : bool;
  mutable inflight : bool;
  mutable concluding : bool;
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

val get_marks : t -> Wstate.path -> (string * (string * Value.obj) list) list

val get_repeat : t -> Wstate.path -> (string * (string * Value.obj) list) option

val timer_fired : t -> Wstate.path -> set:string -> bool

val get_backoff : t -> Wstate.path -> (int * Sim.time) option
(** The pending policy backoff of a path, if any (attempt, fire time). *)

val set_backoff : t -> Wstate.path -> attempt:int -> fire_at:Sim.time -> unit

val is_compensated : t -> Wstate.path -> bool

val mark_compensated : t -> Wstate.path -> unit

val pending_backoffs : t -> (Wstate.path * int * Sim.time) list
(** All pending policy backoffs — recovery resumes each one's remaining
    wait against the persisted attempt counter. *)

val view : t -> effective:(Schema.task -> Sched.effective) -> Sched.view
(** Snapshot view for the pure scheduler core. Build fresh per pass —
    [v_running] is captured at call time. *)

val meta : t -> status:Wstate.status -> Wstate.meta
(** The instance's durable meta record at the given status. *)

val find_node : t -> effective:(Schema.task -> Sched.effective) -> Wstate.path -> Schema.task option
(** The schema node at an absolute path (rooted at the instance's
    top-level task), descending through bound sub-workflows. *)

val running_leaves :
  t ->
  effective:(Schema.task -> Sched.effective) ->
  (Wstate.path * Schema.task * int * Sim.time) list
(** Running leaf executions (path, task, attempt, watchdog deadline):
    recovery re-arms one watchdog per entry, and a running instance with
    none whose root is unfinished is quiescent. *)

(** {1 Subtree erasure} (a compound repeat wipes its scope) *)

val subtree_keys : t -> Wstate.path -> string list
(** Store keys of every record strictly below [path], plus [path]'s own
    chosen/timer records. *)

val wipe_subtree_mirror : t -> Wstate.path -> unit

(** {1 Action translation} *)

val history_write : t -> now:Sim.time -> kind:string -> detail:string -> string * string option
(** Allocate the next persistent history row (consumes [hseq]). *)

val action_history : t -> now:Sim.time -> Sched.action -> (string * string option) list

val action_writes :
  t -> now:Sim.time -> deadline_of:(Schema.task -> Sim.time) -> Sched.action ->
  (string * string option) list
(** The transactional writes realising one action. [deadline_of] gives a
    task's watchdog span (engine config + ["deadline"] kv). *)

val apply_action_mirror :
  t -> now:Sim.time -> deadline_of:(Schema.task -> Sim.time) -> Sched.action -> unit
(** Mirror update only — the caller emits the corresponding events. *)

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

(** {1 Recovery} *)

val load_committed : t -> read:(string -> string option) -> keys:string list -> unit
(** Fill the mirror tables from the committed store: [keys] are the
    instance's committed keys in sorted order (keys of other instances
    are ignored), [read] fetches one committed value. *)
