(** Write-ahead log on simulated stable storage.

    Contents survive a node crash; appends are atomic (a real WAL gets
    the same guarantee from per-record checksums). The log knows nothing
    about node liveness — components built on it refuse operations while
    their node is down. *)

type 'a t

val create : name:string -> 'a t

val append : 'a t -> 'a -> unit

val records : 'a t -> 'a list
(** All stable records, oldest first. *)

val length : 'a t -> int

val rewrite : 'a t -> 'a list -> unit
(** Atomic compaction: replace the whole log contents (checkpointing). *)

val appended_total : 'a t -> int
(** Lifetime append count (monotonic; survives {!rewrite}); a cheap
    proxy for write I/O in benches. *)
