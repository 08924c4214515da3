(** Deterministic leader-based replicated log (the consensus layer).

    A replica group keeps an append-only sequence of opaque payloads —
    "an append-only sequence of inputs managed by some form of
    consensus" — and applies the committed prefix, in order, to a
    deterministic state machine on every replica. The protocol is a
    deliberately small Raft-shaped core:

    - one leader per term; clients append through the leader;
    - an entry commits once a quorum of replicas holds it, and the
      leader only counts quorums for entries of its own term (older
      entries commit transitively under a no-op the new leader appends
      on election);
    - elections are {e demand-driven}: a replica campaigns when a
      client that failed to reach the leader nudges it (and, at
      bootstrap, the lowest-ranked replica campaigns once). A follower
      that granted its vote this term and knows no leader yet defers
      to that candidate instead: it probes it, redirects the client
      there, and campaigns only if the probe fails. There are no
      standing heartbeat timers — every timer the module schedules is
      bounded, so a quiescent group drains the simulator;
    - rejoining replicas catch up through the ordinary replication
      stream: a recovery ping tells the leader to resume pushing, and
      log conflicts are resolved by suffix truncation.

    Durability: term, vote, log entries and commit index live in a
    WAL-backed {!Kvstore} per replica. The applied state machine is
    volatile — on recovery the replica {!val-create}'s [reset] hook
    wipes it and the committed prefix is replayed from the log, so a
    crash can never leave a half-applied command behind.

    Determinism: every delay is a fixed constant, election retries are
    staggered by replica rank (sorted node id), and all I/O goes
    through the simulated RPC layer — same seed, same schedule, same
    byte-identical outcome. *)

type t

type role = Follower | Candidate | Leader

val create :
  rpc:Rpc.t ->
  node:Node.t ->
  peers:string list ->
  apply:(string -> string) ->
  reset:(unit -> unit) ->
  unit ->
  t
(** One replica of the group [peers] (which must contain the node's own
    id). [apply] executes a committed payload against the local state
    machine and returns the client reply; it runs exactly once per
    entry per incarnation, in log order. [reset] wipes the state
    machine before recovery replays the committed prefix. Installs the
    [cons.*] services and crash/recovery hooks on [node]; the
    lowest-ranked replica schedules the bootstrap election. *)

val role : t -> role

val current_term : t -> int

val leader_hint : t -> string option
(** Who this replica believes leads the current term, if anyone. *)

val commit_index : t -> int

val log_length : t -> int

val committed : t -> (int * string) list
(** The committed prefix as [(term, payload)] pairs, oldest first —
    what the log-linearizability oracle compares across replicas.
    Includes the empty-payload no-ops leaders append on election. *)

val start_election : t -> unit
(** Campaign for leadership (no-op on a current leader or while a
    campaign is already running). Exposed for tests; normal operation
    triggers this through urgent client appends. *)

(** {1 Service names} *)

val service_append : string
(** Client entry point: [(urgent, payload)]. Replies are tagged
    ["ok" reply], ["redirect" node], ["electing"] or ["noleader"];
    {!Rlog_client} speaks this protocol. *)

val service_replicate : string

val service_vote : string

val service_ping : string
