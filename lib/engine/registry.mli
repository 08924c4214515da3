(** Implementation registry: run-time binding of the [code] names
    used in scripts to executable implementations.

    Scripts never contain code — a task instance names its
    implementation abstractly ([implementation, e.g. code is X]) and
    the binding to an actual implementation happens at instantiation
    time (paper §3). Rebinding a name is the paper's "online upgrade":
    tasks dispatched after the rebind run the new implementation.

    An implementation maps the chosen input set to an execution {e plan}:
    a list of steps (simulated work, early-released marks) and a final
    result naming one of the taskclass's outputs. The engine classifies
    the result against the schema (outcome / abort outcome / repeat
    outcome) and enforces the transition rules of Fig 3. *)

type outcome = {
  output : string;  (** name of a declared output of the taskclass *)
  objects : (string * Value.t) list;  (** payload per declared output object *)
}

type step =
  | Work of Sim.time  (** simulated computation on the hosting node *)
  | Emit_mark of outcome  (** early release (non-atomic tasks only) *)

type plan = { steps : step list; finish : outcome }

type context = {
  attempt : int;  (** 1 for the first execution, +1 per retry/repeat *)
  input_set : string;  (** which input set fired *)
  inputs : (string * Value.obj) list;  (** object name → value *)
  rng : Rng.t;  (** deterministic per-execution randomness *)
}

type fn = context -> plan

(** What a code name is bound to. *)
type impl =
  | Fn of fn
  | Sub_workflow of Schema.task
      (** a compound task used as implementation (paper §4.3: the name
          of the implementation can refer to some script) *)

type t

val create : unit -> t

val bind : t -> code:string -> fn -> unit
(** Bind or rebind (online upgrade) a code name to a function. *)

val bind_script : t -> code:string -> Schema.task -> unit
(** Bind a code name to a compound-task schema. *)

val find : t -> code:string -> impl option

(** {1 Plan helpers} *)

val finish : ?work:Sim.time -> string -> (string * Value.t) list -> plan
(** [finish ~work output objects] — a plan that computes for [work]
    (default 1ms) then terminates in [output]. *)

val const : ?work:Sim.time -> string -> (string * Value.t) list -> fn
(** An implementation ignoring its context. *)

val effective : t -> Schema.task -> Sched.effective
(** Resolve a task's body through the registry for the scheduler core:
    compound scope (inline or bound sub-workflow), leaf function, or a
    missing/ill-formed binding. *)
