(** Per-node lock table (strict two-phase locking, abort-on-conflict).

    Locks are tagged with the top-level transaction id, so nested
    transactions share their root's locks. Conflicts are reported
    immediately rather than queued: the caller aborts and retries with
    backoff, which keeps the event-driven protocol deadlock-free. The
    table is volatile — after a crash, write locks of prepared
    transactions are re-acquired from the intentions log. *)

type t

type outcome =
  | Granted
  | Conflict of string  (** holder transaction id *)

val create : unit -> t

val read : t -> key:string -> txid:string -> outcome
(** Shared lock; granted alongside other readers, and re-granted to a
    transaction that already holds the write lock. *)

val write : t -> key:string -> txid:string -> outcome
(** Exclusive lock; upgrades the caller's own read lock when it is the
    sole reader. *)

val write_free : t -> key:string -> txid:string -> bool
(** Whether {!write} would grant, without taking the lock: for a caller
    that would release it again within the same step. *)

val holds_read : t -> key:string -> txid:string -> bool

val holds_write : t -> key:string -> txid:string -> bool

val release_all : t -> txid:string -> unit
(** Drop every lock held by [txid] (commit or abort), in time
    proportional to the number of keys it holds. *)

val reset : t -> unit
(** Crash: forget everything. *)

val held_keys : t -> txid:string -> string list
(** Sorted; for tests. *)

val held_total : t -> int
(** Total live lock grants across all transactions (each reader of a key
    counts once). 0 means the table is fully drained — what a quiescent
    node must look like; leftovers are orphaned locks. *)
