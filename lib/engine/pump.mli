(** The evaluation loop of the execution service.

    A pass judges an instance's readiness ({!Sched}), decides its
    actions into rows that the mirror applies at once ({!Instate}),
    persists those rows in one write set ({!Dispatch}) and, once they
    commit, announces the actions ({!Event}) and runs their effects: dispatches, watchdogs, policy retries and backoffs,
    input-set timers, compensation and conclusion. Reports from task
    hosts enter here too. Every timer and deferred event this module
    schedules is fenced by the node's incarnation
    ({!Node.incarnation}). *)

type config = {
  default_deadline : Sim.time;
  system_max_attempts : int;
  dispatch_overhead : Sim.time;
  retain_concluded : bool;
  trace : bool;
}
(** See {!Engine.config}. *)

(** The engine's state. *)
type t = {
  sim : Sim.t;
  rpc : Rpc.t;
  node : Node.t;
  disp : Dispatch.t;
  reg : Registry.t;
  config : config;
  mutable log : (Sim.time * Event.t) list;
      (** this engine's own events, newest first; kept only with
          [config.trace] *)
  metrics : Metrics.t;
  jitter_salt : string;
      (** engine-stable, seed-derived salt for backoff jitter, so the
          spread is a pure function of (seed, engine, iid, path,
          attempt) and never of the runtime interleaving *)
  insts : (string, Instate.t) Hashtbl.t;  (** the instance mirrors *)
  dir : (string, int) Hashtbl.t;
      (** every instance of the directory, with its launch sequence
          number (its [wf:dir:] row): the launch order *)
  mutable dir_peak : int;
      (** the most [dir] entries since [dir] and [insts] were last
          rebuilt: {!Engine.gc} rebuilds both once the directory falls
          below a quarter of it *)
  compiled : (string * string, Schema.task) Hashtbl.t;
      (** schema cache keyed by (root, script) *)
  mutable seq : int;  (** the last launch sequence number handed out *)
}

val emit : t -> Event.t -> unit
(** Publish an engine event, stamped with the engine's node id, and log
    it when [config.trace] is on. *)

val effective_body : t -> Schema.task -> Sched.effective

val find_task_node : t -> Instate.t -> Wstate.path -> Schema.task option

val persist_rows : t -> Instate.t -> Wstate.row list -> (unit -> unit) -> unit
(** Apply an instance's rows to its mirror, then persist them; the
    continuation runs once they commit. *)

val mark_dirty : ?paths:Wstate.path list -> t -> Instate.t -> unit
(** Queue an evaluation pass over [paths] (all paths when omitted). *)

val fail_policy : t -> Instate.t -> path:Wstate.path -> task:Schema.task -> reason:string -> unit
(** Fail a task: its first declared abort outcome if it has one, else
    [Failed]. *)

val conclude : t -> Instate.t -> Wstate.status -> Event.t -> (unit -> unit) -> unit
(** The one way an instance stops running: persist the final meta and
    the [instance] history row, then announce the event, fire the
    completion callbacks, bound resident memory and run the
    continuation. *)

val resume : t -> Instate.t -> unit
(** Take a mirror rebuilt by {!Recovery} up where the crash left it:
    re-arm each running leaf's watchdog at its persisted deadline and
    each pending backoff at its fire time, then queue a full pass — or,
    for a concluded instance, drop the pump-only state. *)

val handle_report : t -> is_mark:bool -> src:string -> string -> string
(** The handler of the engine's completion and mark services. *)
