(** Replica-set-aware client for a {!Rlog} group.

    Keeps a cached leader guess and speaks the [cons.append] redirect
    protocol: [redirect] replies update the cache, connection failures
    {e invalidate} it (never retry a dead node forever) and fail over
    to the next replica with the urgent flag set — which is what nudges
    a live follower into campaigning when the leader really is gone.
    Every append and read is bounded by [max_steps] hops, so a group
    with no electable leader yields an error, not a loop. *)

type t

val create :
  rpc:Rpc.t -> src:string -> replicas:string list -> ?max_steps:int -> ?retry_delay:Sim.time -> unit -> t
(** [src] is the calling node; [replicas] the group membership.
    [max_steps] (default 16) bounds the total redirect/failover hops of
    one operation; [retry_delay] (default 5ms) is the wait after an
    ["electing"]/["noleader"] reply. *)

val append : t -> payload:string -> ((string, string) result -> unit) -> unit
(** Replicate [payload] through the current leader; the callback gets
    the state machine's reply once the entry committed. Payloads must
    carry their own idempotence token (the state machine deduplicates),
    because a retry after a leader crash can reach a different leader
    that already holds the first copy. *)

val read : t -> service:string -> body:string -> ((string, string) result -> unit) -> unit
(** Call a plain (read-only) service on the replica set: the cached
    leader first — freshest, since it applies entries as they commit —
    then surviving replicas on connection failure. *)
