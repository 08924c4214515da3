(** Transaction participant (resource manager) hosted on a node.

    Owns the node's transactional objects: a persistent {!Kvstore}
    holding committed values, an intentions log, and the lock table of
    write locks. Serves [tx.prepare] / [tx.commit] / [tx.abort]; the
    co-located coordinator also calls {!commit_local}. Transactions are
    flat and write-only: nothing reads through a participant, so a
    transaction holds locks here only while it is prepared.

    Recovery re-acquires the write locks of prepared-but-undecided
    transactions from the intentions log and polls the coordinator's
    [tx.status] service until a decision arrives (presumed abort). *)

type t

val create : rpc:Rpc.t -> node:Node.t -> t
(** Installs services and crash/recovery hooks on [node]. The node must
    already be attached to the RPC layer. *)

val node_id : t -> string

val commit_local : t -> txid:string -> writes:Txrecord.write list -> bool
(** The one-phase decision, for the co-located coordinator: this node is
    the transaction's only participant, so checking the write locks and
    applying the writes happen here in one step. Returns the vote: a
    refusal (a prepared 2PC transaction holds one of the keys) changes
    nothing. The transaction takes no lock, so there is none to
    release.

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
