(** Transaction participant (resource manager) hosted on a node.

    Owns the node's transactional objects: a persistent {!Kvstore}
    holding committed values, an intentions log, and the lock table.
    Serves [tx.read] / [tx.prepare] / [tx.prepare-ro] / [tx.commit] /
    [tx.abort]; the co-located coordinator also calls {!commit_local}.

    Recovery re-acquires the write locks of prepared-but-undecided
    transactions from the intentions log and polls the coordinator's
    [tx.status] service until a decision arrives (presumed abort). *)

type t

val create : rpc:Rpc.t -> node:Node.t -> t
(** Installs services and crash/recovery hooks on [node]. The node must
    already be attached to the RPC layer. *)

val node_id : t -> string

val commit_local :
  t -> txid:string -> read_keys:string list -> writes:Txrecord.write list -> bool
(** The one-phase decision, for the co-located coordinator: this node is
    the transaction's only participant, so validating the read locks,
    checking the write locks, applying the writes and releasing every
    lock the transaction held happen here in one step. Returns the vote;
    a refusal changes nothing but the released locks.

    Contract: called at most once per txid, and only by the coordinator
    on this node, whose txids never repeat (they carry its incarnation
    and a sequence number). A direct call cannot be delivered twice, so
    nothing is kept to recognise a repeat: no intentions-log record and
    no cached decision. This is the only one-phase lane: a writer on
    another node takes [tx.prepare] and [tx.commit].

    Raises {!Kvstore.Unavailable} when the node is down. *)

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

val decided_count : t -> int
(** 2PC decisions cached for duplicate detection (tests). The local
    lane adds nothing to it. *)

val store : t -> Kvstore.t

val log_length : t -> int

val log : t -> Txrecord.precord list
(** The intentions log, oldest record first (tests). *)

val checkpoint : t -> unit
(** Compact the object store's WAL and drop decided records from the
    intentions log. *)
