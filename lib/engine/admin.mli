(** Remote administration of an execution service (paper Fig 4: the
    application control and management tools reach the services through
    the ORB).

    {!serve} installs the admin services on the engine's node;
    {!Client} is the RPC client any node can use: list instances, query
    status and task states, cancel an instance. Reconfiguration and
    launching are deliberately not exposed remotely — they need local
    closures (implementations, transforms); the paper routes those
    through administrative workflows, which {!Engine.reconfigure} plus a
    workflow task implementation covers (see test_engine.ml's
    admin-workflow test). *)

val serve : Engine.t -> unit
(** Install [wf.admin.*] services on the engine's node. *)

module Client : sig
  type t

  val create : rpc:Rpc.t -> src:string -> engine_node:string -> t

  val list_instances : t -> ((string list, string) result -> unit) -> unit

  val status : t -> iid:string -> ((Wstate.status option, string) result -> unit) -> unit

  val task_states : t -> iid:string -> (((string * string) list, string) result -> unit) -> unit
  (** (path, printed state) pairs, sorted by path. *)

  val policy_budgets :
    t -> iid:string -> ((Instate.policy_budget list, string) result -> unit) -> unit
  (** Per-task recovery-policy budget counters ({!Instate.policy_budgets})
      over RPC: attempts used, backoff remaining, compensations fired. *)

  val cancel : t -> iid:string -> reason:string -> ((unit, string) result -> unit) -> unit

  val history :
    t -> iid:string -> (((int * string * string) list, string) result -> unit) -> unit
  (** The instance's persistent audit log: (virtual time, kind, detail). *)
end
