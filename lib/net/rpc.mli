(** Request/response with timeouts, bounded retries and server-side
    de-duplication on top of {!Network}.

    Retried requests carry the same request id; the server caches
    replies per request id, so application handlers execute at most once
    per request even when the transport retries (at-least-once delivery,
    at-most-once execution — the CORBA-ish contract the paper's
    execution environment assumes). The dedup cache is volatile: a
    server crash may re-execute a request after recovery, so handlers
    that survive crashes must themselves be idempotent.

    The dedup cache is bounded: each server endpoint keeps at most
    [reply_cache_cap] replies (default 1024) and evicts the oldest
    first. An evicted reply demotes a late duplicate of that request to
    a re-execution — the same degradation a server crash causes.
    Each eviction is announced as [Rpc_reply_evicted].

    Not every handler is idempotent under re-execution. The transaction
    participant recognises a repeated [tx.prepare] only by its
    intentions-log records, and [Participant.checkpoint] drops the
    records of decided transactions. A [tx.prepare] redelivered after a
    checkpoint and a crash is therefore prepared again, and the
    coordinator's [tx.status] answer can commit its writes a second
    time, over later ones.

    A frame on the envelope services that does not decode is dropped,
    as a lost frame is; the caller's timeout covers both.

    Self-addressed calls ([src = dst]) on a live node take a loopback
    lane: the request is handed to the local handler on a deferred
    simulation event without touching {!Network} — no latency, jitter,
    loss, partitions or retries, and no dedup cache (the handler runs
    exactly once). The callback discipline is unchanged: delivery stays
    asynchronous, and a crash between call and delivery suppresses the
    callback just as for remote calls. If the node is down at call time
    the normal network path (and its drop-to-timeout semantics) is used.
    Each loopback hit is announced as [Rpc_loopback]; a call is
    announced as [Rpc_sent] and a resend as [Rpc_retried]. The event bus
    is the only count of them. *)

type t

val create : ?reply_cache_cap:int -> Network.t -> t

val network : t -> Network.t

val attach : t -> Node.t -> unit
(** Install the RPC envelope service on a node. Must be called once per
    node before it can send or serve calls. *)

val serve_async : t -> Node.t -> service:string -> (src:string -> string -> reply:((string, string) result -> unit) -> unit) -> unit
(** Register a service whose reply is produced later: the handler
    receives a [reply] continuation instead of returning a string, so
    multi-round protocols (consensus appends, quorum waits) can answer
    once their outcome is known. At most one invocation runs per request
    id — duplicates arriving while the first is in flight are dropped,
    and the eventual reply answers them all (retries share the id). The
    reply is cached in the ordinary dedup cache once produced. A crash
    fences outstanding invocations: their late [reply] calls are
    discarded, and the client's retry after recovery re-runs the
    handler, so async handlers need the same idempotence discipline as
    crash-re-executed sync handlers. Requires {!attach} first. *)

val call :
  t ->
  src:string ->
  dst:string ->
  service:string ->
  body:string ->
  ?timeout:Sim.time ->
  ?retries:int ->
  ((string, string) result -> unit) ->
  unit
(** [call t ~src ~dst ~service ~body k] invokes [service] on [dst].
    [k (Ok reply)] on success. [k (Error reason)] when the service
    raised, is unknown, or all [retries] attempts (default 8) timed out
    ([timeout] default 10ms per attempt). If the calling node crashes
    while the call is outstanding, [k] is never invoked. *)

val request_id : src:string -> int -> string
(** [src#n], the id of [src]'s [n]-th call: the key of its pending entry
    and of the callee's reply cache. *)
