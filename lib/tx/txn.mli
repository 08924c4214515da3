(** Transactions: the client API and the per-node coordinator.

    The programming model mirrors what the paper takes from OTSArjuna:
    top-level atomic actions over persistent objects living on arbitrary
    nodes, with nested actions inside. Commit runs presumed-abort
    two-phase commit; the decision is logged before the commit phase and
    a recovered coordinator finishes the commit phase, while recovered
    participants poll [tx.status], so a committed transaction's effects
    eventually reach every participant despite a finite number of
    crashes and message losses.

    Commit takes a fast lane when the transaction's shape allows it:
    read-only transactions validate-and-release in one round with no
    logging; a transaction whose only participant is the coordinator's
    own node commits in one phase, its buffered writes passed as they are
    to {!Participant.commit_local}, with no RPC, no encoding and nothing
    logged or remembered, since a direct call cannot repeat. Every other
    transaction, a single writer on another node included, runs 2PC, in
    which read-only participants vote and release in phase 1 and are
    excluded from the commit fan-out. Every lane presumes abort, and only
    a logged [C_committed] obligates recovery.

    Everything is continuation-passing (the simulator is event-driven);
    the ['a io] monad keeps call sites readable. Nested transactions are
    coordinator-local: children buffer writes and merge them into the
    parent on child commit, share the root's locks, and vanish on child
    abort. *)

type error =
  [ `Conflict of string  (** lock conflict, holder's txid *)
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

val begin_child : t -> t
(** Nested transaction. *)

val txid : t -> string

val read : t -> node:string -> key:string -> string option io
(** Sees this transaction's (and its ancestors') buffered writes first;
    otherwise read-locks and fetches the committed value. *)

val write : t -> node:string -> key:string -> value:string -> unit
(** Buffered locally; made visible at top-level commit. *)

val delete : t -> node:string -> key:string -> unit
(** Buffered deletion; the key disappears at top-level commit. *)

val commit : t -> unit io
(** For a child: merge into parent (never fails). For a top-level
    transaction: two-phase commit; [Ok ()] means the decision is logged
    durably {e and} every participant has applied it. *)

val abort : t -> unit
(** Child: discard. Top-level: release locks everywhere (best effort;
    presumed abort makes stragglers clean up on their own). *)

val run : manager -> ?max_attempts:int -> (t -> 'a io) -> 'a io
(** [run mgr body] wraps begin/body/commit and retries the whole
    transaction on [`Conflict] (with linear backoff and jitter) up to
    [max_attempts] (default 16) times. A body failure aborts the
    transaction; [`Conflict]/[`Timeout] failures are retried, any other
    failure is final. A crash of the manager's node ends the run: no
    later attempt begins and the continuation never runs. *)

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
