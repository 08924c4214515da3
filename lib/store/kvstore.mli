(** Persistent key/value store: a volatile cache in front of a WAL.

    This plays the role of Arjuna's persistent object store. A crash
    wipes the cache and makes the store unavailable; recovery replays
    the WAL. Values are strings — callers bring their own codecs.

    The WAL stays proportional to what the store holds. When a {!put}
    or a {!delete} leaves the WAL with more than 64 records and more
    than twice as many records as live bindings, the store rewrites it
    to one snapshot of those bindings ({!checkpoint}). So after every
    operation [wal_length t <= max 64 (2 * live)], where [live] is the
    number of bindings. A rewrite costs O(live) and follows at least
    [live] appends since the previous one, so a write stays amortised
    O(1). (The rewrite walks the cache's hash table, so when the table
    has more than four times as many buckets as [max 64 live] it also
    rebuilds the table at its live size.) *)

exception Unavailable of string
(** Raised by any operation attempted while the store's node is down. *)

type t

val create : name:string -> t

val available : t -> bool

val put : t -> string -> string -> unit

val get : t -> string -> string option

val mem : t -> string -> bool

val delete : t -> string -> unit

val keys : t -> string list
(** Sorted, for deterministic iteration. *)

val keys_with_prefix : t -> prefix:string -> string list
(** The keys that start with [prefix], sorted: the same list as
    filtering {!keys}, but one pass over the table that sorts only the
    matches, and allocates nothing for a key that does not match. *)

val fold : t -> init:'acc -> f:('acc -> string -> string -> 'acc) -> 'acc
(** Folds over bindings in sorted key order. *)

val crash : t -> unit
(** Simulated node crash: volatile cache lost, store unavailable.
    Stable contents (the WAL) are untouched. Idempotent. *)

val recover : t -> unit
(** Replay the WAL to rebuild the cache; store becomes available.
    Idempotent when already available. *)

val checkpoint : t -> unit
(** Compact the WAL down to one snapshot of the live bindings now; the
    same rewrite the store makes by itself once its log outgrows its
    bindings. *)

val wal_length : t -> int

val writes_total : t -> int
(** Lifetime stable-write count (for benches). *)

val replays_total : t -> int
(** Number of recoveries performed. *)
