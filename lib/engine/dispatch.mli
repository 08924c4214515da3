(** The effect layer between the pure scheduler core and the substrate:
    everything the engine does that touches transactions, RPC or the
    participant's committed store goes through here, so [Engine] itself
    stays an orchestrator and {!Sched} stays pure.

    Each operation announces itself on the simulator's event bus
    ({!Event}): dispatches emit [Task_dispatched], failed persists emit
    [Txn_failed]. *)

type t

val create :
  ?overhead:Sim.time ->
  rpc:Rpc.t ->
  node:Node.t ->
  mgr:Txn.manager ->
  participant:Participant.t ->
  unit ->
  t
(** [overhead] models the engine's own per-dispatch processing cost:
    dispatches are serialised through a busy cursor, each occupying the
    engine for [overhead] virtual time before its RPC leaves the node.
    Default 0 (dispatch is free, the historical behaviour); the cluster
    scaling bench sets it to expose the single-engine bottleneck.

    Raises [Invalid_argument] if [mgr] lives on another node than
    [node]: every persist must be a write set on the manager's own node
    (see {!persist}). *)

val persist : t -> (string * string option) list -> (unit -> unit) -> unit
(** Apply a write set ([Some] = put, [None] = delete) on the engine
    node under one flat transaction ({!Txn.run}, which does not retry);
    the continuation runs only on commit. A refused write set emits
    [Txn_failed] and waits: its requests go back to the head of the
    queue, which flushes again 50 ms later (a participant's
    status-poll period), so write sets commit in the order they were
    requested and no continuation is dropped.

    Persists are batched: every write set issued within one virtual
    instant joins that instant's batch and commits with it as one
    transaction on the flush settled for the instant ({!Sim.settle};
    later writes to a key win); a
    flush combining two or more requests emits [Persist_batched]. A
    crash before the flush drops the whole batch (no partial commit),
    and the queued continuations die with it, exactly like an
    individual persist that never reached its commit.

    The write set lives on the engine's own node only, so it commits on
    the local one-phase lane ({!Participant.commit_local}) and is never
    left prepared: after a crash it is either in the committed store or
    lost. Recovery relies on this. *)

val send_exec : t -> host:string -> retries:int -> Wfmsg.exec_req -> ((string, string) result -> unit) -> unit
(** Dispatch one implementation execution to a task host (emits
    [Task_dispatched], then the at-least-once RPC). With a non-zero
    [overhead] the dispatch joins the engine's ready deque: enqueue is
    O(1) and a single chained drain event pops one dispatch per
    [overhead] — same timing as per-dispatch scheduling, one simulator
    event per engine instead of one per queued dispatch. *)

val committed_value : t -> key:string -> string option
(** Read the engine node's committed store outside any transaction. *)

val committed_key_array : t -> string array
(** Every committed key, in [String.compare] order: one read that
    serves many {!key_slice} calls. *)

val key_slice : string array -> prefix:string -> string list
(** The keys of a sorted array that start with [prefix], in order — the
    same list a [String.starts_with] filter returns, found by binary
    search in O(log n + slice). *)

val committed_keys_with_prefix : t -> prefix:string -> string list
(** The committed keys that start with [prefix], in [String.compare]
    order, read on their own ({!Kvstore.keys_with_prefix}): for one
    instance, where {!committed_key_array} would sort every key. *)

val history_in : t -> string array -> iid:string -> (Sim.time * string * string) list
(** {!committed_history} over an already-read {!committed_key_array}. *)

val committed_history : t -> iid:string -> (Sim.time * string * string) list
(** An instance's persistent audit rows (at, kind, detail) from the
    committed store, sorted by time then sequence. *)

val compact : t -> unit
(** Compact the participant's intentions log and the coordinator's
    decision log (the object store's snapshot comes along). *)
