(** RPC client for the {!Repository} service: what administrative
    applications and remote engines use (paper Fig 4's arrows through
    the ORB). All operations are continuation-passing over the
    simulated network. The client only picks the transport; every
    request and reply is encoded by {!Repository}. *)

type t

val create : rpc:Rpc.t -> src:string -> repo_node:string -> t
(** [src] is the calling node; [repo_node] hosts the repository. *)

val create_replicated : rpc:Rpc.t -> src:string -> replicas:string list -> unit -> t
(** A client of a {!Repo_group} replica set: mutations become
    replicated commands appended through the current leader (with
    redirect-on-[Not_leader] and failover baked in, see
    {!Rlog_client}), reads go leader-first and fail over to surviving
    replicas. Every mutation carries a fresh client id, so a retry
    that reaches a different leader after a crash applies exactly
    once. *)

val store :
  t -> name:string -> source:string -> ((Repository.version, string) result -> unit) -> unit

val fetch :
  t -> name:string -> ?version:Repository.version -> ((string, string) result -> unit) -> unit

val list_names : t -> ((string list, string) result -> unit) -> unit

val inspect : t -> name:string -> ((Repository.summary, string) result -> unit) -> unit

(** {1 Instance placement directory} *)

val assign_many :
  t -> pairs:(string * string) list -> ((int, string) result -> unit) -> unit
(** Record a whole batch of ownerships in one [repo.assign_batch] write —
    one directory round-trip per flush instead of one per instance. The
    callback gets the number of pairs recorded. *)

val owner : t -> iid:string -> ((string option, string) result -> unit) -> unit
(** Which engine owns [iid]? [Ok None] when the directory has no entry. *)

val placements : t -> (((string * string) list, string) result -> unit) -> unit

val launch :
  t ->
  engine:Engine.t ->
  name:string ->
  ?version:Repository.version ->
  root:string ->
  inputs:(string * Value.obj) list ->
  ((string, string) result -> unit) ->
  unit
(** Fetch a stored script and launch it on [engine] (which must be local
    to the caller). The callback receives the instance id. *)
