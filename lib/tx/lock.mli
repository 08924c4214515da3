(** Per-node lock table (strict two-phase locking, abort-on-conflict).

    Transactions are flat and write-only, so the table holds exclusive
    write locks alone: it maps a key to its writer's txid. A 2PC
    participant takes them at [tx.prepare] and drops them at the
    decision; the local one-phase lane only checks them. Conflicts are
    reported immediately rather than queued: the prepare votes no and
    the transaction aborts, which keeps the event-driven protocol
    deadlock-free. The table is volatile — after a crash, the write
    locks of prepared transactions are re-acquired from the intentions
    log. *)

type t

type outcome =
  | Granted
  | Conflict of string  (** holder transaction id *)

val create : unit -> t

val write : t -> key:string -> txid:string -> outcome
(** Exclusive lock; re-granted to its holder. *)

val write_free : t -> key:string -> txid:string -> bool
(** Whether {!write} would grant, without taking the lock: for a caller
    that would release it again within the same step. *)

val release_all : t -> txid:string -> unit
(** Drop every lock held by [txid] (commit or abort), in time
    proportional to the number of keys it holds. *)

val reset : t -> unit
(** Crash: forget everything. *)

val held_keys : t -> txid:string -> string list
(** Sorted; for tests. *)

val held_total : t -> int
(** Total live lock grants. 0 means the table is fully drained — what a
    quiescent node must look like; leftovers are orphaned locks. *)
