(** Transactions: the client API and the per-node coordinator.

    The programming model keeps what the paper needs from OTSArjuna:
    flat, top-level atomic actions whose writes land on persistent
    objects, all or none, despite crashes. A transaction only buffers
    writes; it never reads through the transaction layer and never
    nests. Commit runs presumed-abort two-phase commit; the decision is
    logged before the commit phase and a recovered coordinator finishes
    the commit phase, while recovered participants poll [tx.status], so
    a committed transaction's effects eventually reach every participant
    despite a finite number of crashes and message losses.

    Commit takes a fast lane when the transaction's only participant is
    the coordinator's own node: it commits in one phase, its buffered
    writes passed as they are to {!Participant.commit_local}, with no
    RPC, no encoding and nothing logged or remembered, since a direct
    call cannot repeat. Every other transaction, a single writer on
    another node included, runs 2PC. Both lanes presume abort, and only
    a logged [C_committed] obligates recovery.

    Everything is continuation-passing (the simulator is event-driven);
    the ['a io] monad keeps call sites readable. *)

type error =
  [ `Conflict of string  (** a participant refused: a prepared transaction holds a key *)
  | `Timeout  (** a participant stayed unreachable *)
  | `Aborted of string ]

type 'a io = (('a, error) result -> unit) -> unit

val return : 'a -> 'a io

val fail : error -> 'a io

val ( let* ) : 'a io -> ('a -> 'b io) -> 'b io

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

(** {1 Managers} *)

type manager

val manager : rpc:Rpc.t -> node:Node.t -> participant:Participant.t -> manager
(** One per node; installs the [tx.status] service and crash/recovery
    hooks. The node must already be RPC-attached. [participant] is the
    one hosted on [node]: one-phase commits whose only writer is this
    node call it directly; a writer elsewhere takes 2PC. Raises
    [Invalid_argument] if it lives on another node. *)

val manager_node : manager -> string

(** {1 Transactions} *)

type t

val begin_ : manager -> t

val txid : t -> string

val write : t -> node:string -> key:string -> value:string -> unit
(** Buffered locally; made visible at commit. *)

val delete : t -> node:string -> key:string -> unit
(** Buffered deletion; the key disappears at commit. *)

val commit : t -> unit io
(** Atomic commit of the buffered writes: [Ok ()] means the decision is
    made durable {e and} every participant has applied it. Fails with
    [`Conflict] when a participant refuses (a prepared transaction holds
    one of the keys) and with [`Timeout] when one stays unreachable. *)

val abort : t -> unit
(** Discard the buffered writes. No participant has seen them (locks
    are taken at prepare), so nothing is sent. *)

val run : manager -> (t -> 'a io) -> 'a io
(** [run mgr body] is begin, body, then commit, once: there is no retry.
    A body failure aborts the transaction and is the result. A crash of
    the manager's node during the commit ends the run: its continuation
    never runs. *)

val compact : manager -> unit
(** Compact the coordinator's decision log: drop records of transactions
    whose commit phase has completed (decision pushed to and acknowledged
    by every participant), keeping undecided commits and the incarnation
    count. Safe at any time; bounds log growth in long-lived nodes. *)

(** {1 Introspection} *)

val active_count : manager -> int
(** Top-level transactions begun here and not yet resolved. A quiescent
    coordinator has none; leftovers are stuck transactions
    (fault-exploration oracle). *)

val undecided_commits : manager -> int
(** Committed decisions whose commit phase has not finished pushing to
    every participant. Non-zero at quiescence means a commit push is
    stuck. *)
