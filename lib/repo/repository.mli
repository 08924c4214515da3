(** Workflow repository service (paper §3, Fig 4).

    Stores workflow scripts (schemas) persistently and versioned, and
    serves operations for initialising, modifying and inspecting them.
    Every stored script is parsed, template-expanded and validated
    first: the repository only ever hands out runnable scripts.

    The service lives on a node and is reached over RPC ({!Repo_client});
    its state survives node crashes through the usual WAL-backed store. *)

type t

val create : node:Node.t -> t
(** Installs the [repo.*] services and crash/recovery hooks — the
    single-node flavour, where this store {e is} the repository. *)

val create_backing : node:Node.t -> t
(** A bare repository state machine: the store, no services, no hooks.
    The consensus layer ({!Repo_group}) wraps one per replica, feeds it
    committed commands through {!apply_command}, and wires its own
    recovery (log replay into a {!reset_state}-fresh store). *)

val install_read_services : t -> unit
(** Serve the read-only [repo.*] services ([fetch]/[list]/[inspect]/
    [owner]/[placements]) from this backing's local state. Mutations
    are deliberately excluded — on a replica they must travel through
    the log. *)

val reset_state : t -> unit
(** Discard the backing store (replicated recovery replays the log into
    the fresh one). Single-node repositories never call this. *)

val apply_command : t -> string -> string
(** Execute one replicated command ({!command}) and return the
    wire-encoded reply. Deterministic, and deduplicated by the client
    id embedded in the command: re-applying a command whose id was
    already applied returns the original reply without re-executing.
    Never raises on the command's bytes: one that does not decode gets
    an error reply that depends only on those bytes, and leaves the
    store untouched. *)

(** {1 Local (in-process) operations — the service's own logic} *)

type version = int

type summary = {
  s_name : string;
  s_head : version;
  s_roots : string list;  (** top-level instances usable as schema roots *)
  s_task_count : int;  (** tasks in the largest root's tree *)
  s_warnings : int;
}

val store : t -> name:string -> source:string -> (version, string) result
(** Validate and store a new version (1 for a new name, head+1 after). *)

val fetch : t -> name:string -> ?version:version -> unit -> (string, string) result

val head : t -> name:string -> version option
(** [None] when no script of that name was ever stored. A head record
    that exists but does not parse as a version is store corruption:
    raises [Invalid_argument] rather than masking it as "no script". *)

val list_names : t -> string list

val inspect : t -> name:string -> (summary, string) result

val history : t -> name:string -> version list

(** {1 Instance placement directory}

    The cluster layer records which engine owns each workflow instance
    here, so {e any} node can resolve "which engine owns instance X"
    through the repository service — the directory survives repository
    crashes with the rest of the store. *)

val assign : t -> iid:string -> engine:string -> unit

val owner : t -> iid:string -> string option

val placements : t -> (string * string) list
(** All [(iid, engine)] assignments, sorted by instance id. *)

(** {1 The protocol}

    Every operation, its request and reply codecs, and its execution
    live here; {!Repo_client} only picks the transport. *)

type ('q, 'r) op
(** An operation taking a request ['q] and answering ['r]. *)

val op_store : (string * string, (version, string) result) op
(** [(name, source)]: the new version, or why the script was refused. *)

val op_assign_batch : ((string * string) list, int) op
(** [(iid, engine)] pairs: the number recorded. *)

val op_fetch : (string * version option, (string, string) result) op

val op_list : (unit, string list) op

val op_inspect : (string, (summary, string) result) op

val op_owner : (string, string option) op

val op_placements : (unit, (string * string) list) op

val service : (_, _) op -> string
(** ["repo." ^] the operation's name. *)

val is_write : (_, _) op -> bool
(** [true] for {!op_store} and {!op_assign_batch}. A single node serves
    them as services; on a replica set they travel through the log as
    a {!command}. *)

val request : ('q, _) op -> 'q -> string
(** The request body of the operation's service. *)

val command : ('q, _) op -> cid:string -> 'q -> string
(** A write as a replicated command: its name, the client id [cid]
    (unique per command, the dedup key of {!apply_command}) and its
    request body. *)

val reply : (_, 'r) op -> string -> ('r, string) result
(** Decode a reply of the operation; [Error] when it does not decode. *)

(**/**)

val internal_store : t -> Kvstore.t
(** The backing store, exposed for tests and repair tooling only. *)
