(** Transaction participant (resource manager) hosted on a node.

    Owns the node's transactional objects: a persistent {!Kvstore}
    holding committed values, an intentions log, and the lock table.
    Serves [tx.read] / [tx.prepare] / [tx.commit] / [tx.abort].

    Recovery re-acquires the write locks of prepared-but-undecided
    transactions from the intentions log and polls the coordinator's
    [tx.status] service until a decision arrives (presumed abort). *)

type t

val create : rpc:Rpc.t -> node:Node.t -> t
(** Installs services and crash/recovery hooks on [node]. The node must
    already be attached to the RPC layer. *)

val node_id : t -> string

val on_apply : t -> (Txrecord.write list -> unit) -> unit
(** Observer invoked after a committed transaction's writes have been
    applied to the store — including commits finished by the recovery
    termination protocol. Lets co-located services (the workflow engine)
    react to state that became durable while their volatile view was
    being rebuilt. *)

val commit_one :
  t -> txid:string -> read_keys:string list -> writes:Txrecord.write list -> bool
(** One-phase commit: this node is the transaction's only participant,
    so validating the read locks, taking the write locks, applying, and
    the single [P_one_phase] append happen here in one step. Returns the
    vote. A txid already decided here returns that decision again and
    changes nothing; a refusal releases every lock the transaction held
    and is remembered, so a duplicate can never commit it later.
    Observers run before it returns, and their exceptions propagate.
    Raises {!Kvstore.Unavailable} when the node is down. *)

val handle_commit_one : t -> src:string -> string -> string
(** The [tx.commit1] service: decodes the request, calls {!commit_one},
    encodes the vote. *)

val committed_value : t -> key:string -> string option
(** Directly inspect the committed store (testing / local fast reads
    outside any transaction). Raises {!Kvstore.Unavailable} when the
    node is down. *)

val committed_keys : t -> string list

val prepared_txids : t -> string list
(** Undecided prepared transactions (sorted), for tests. *)

val locks_held : t -> int
(** Live lock grants in this node's lock table. A quiescent node holds
    none; leftovers are orphaned locks (fault-exploration oracle). *)

val store : t -> Kvstore.t

val log_length : t -> int

val log : t -> Txrecord.precord list
(** The intentions log, oldest record first (tests). *)

val checkpoint : t -> unit
(** Compact the object store's WAL and drop decided records from the
    intentions log. *)
