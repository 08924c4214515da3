(** Exploration scenarios: workloads rebuilt from scratch per schedule.

    Each scenario constructs a fresh simulated stack, plants the fault
    plan at setup time (a fault scheduled at the same instant as a run
    event fires first, by sequence-number tie-breaking), drives the run
    to a fixed horizon and returns the final {!Oracle.obs}. Because the
    simulator is deterministic, running with the empty plan yields a
    stable fault-free reference observation. *)

type t = {
  sc_name : string;
  sc_multi_engine : bool;  (** uses the sharded {!Cluster} layer *)
  sc_crash_nodes : string list;
      (** nodes that schedules may crash/restart (engines and hosts; the
          repository node is partition-able but not crashed) *)
  sc_nodes : string list;  (** full node population, for plan validation *)
  sc_run : Fault.t -> Decision.t option -> Oracle.obs;
      (** run one schedule; pass a {!Decision.collector} to harvest
          decision points (reference runs only) *)
  sc_judge : reference:Oracle.obs -> Oracle.obs -> Oracle.verdict list;
      (** the oracle battery judging this scenario's runs: the stock
          {!Oracle.judge} for the classic workloads, extended with
          {!Oracle.policy_conformance} for the recovery family *)
}

val engine_config : Engine.config
(** Deadline/retry budget generous enough that every crash-with-restart
    schedule should still finish — a run that does not is a finding. *)

val horizon : Sim.time
(** Hard stop for a single run (well past any expected makespan). *)

val chain : t
(** 6-step remote chain: engine on [n0], every step pinned to host
    [h1], so dispatch and completion reports cross the network. *)

val supply : t
(** The supply-chain case study (smooth scenario) on a single node —
    the local one-phase lane carries every commit. *)

val cluster3 : t
(** Three engines + repository, six 4-step chains placed round-robin —
    exercises placement-directory writes and cross-engine isolation. *)

(** {1 Declarative-recovery scenarios}

    One scenario per [recovery { ... }] construct — the work leaf is
    pinned to host [h1] so crash and partition schedules land on the
    recovering task's own message boundaries, and each is judged with
    {!Oracle.judge_with} against the policy spec its script declared. *)

val recovery_retry : t
(** [retry 8 backoff 5 max 40] over an implementation that crashes on
    its first two attempts. *)

val recovery_timeout : t
(** [timeout 50 then substitute "r.sub"] over an implementation that
    computes far past the deadline. *)

val recovery_alternative : t
(** [retry 4; alternative "r.alive"] over a dead primary — the band
    advance reaches the alternative by failure, never by timeout. *)

val recovery_compensate : t
(** [compensate undo] on a task that terminates in an abort outcome;
    the sibling handler is owed exactly one durable compensation
    record. *)

val recovery_all : t list

(** {1 Replicated-repository scenarios}

    Three-replica consensus repository under engines launching chains;
    crash and partition schedules may hit the repository nodes
    themselves. Observations feed the log-linearizability and
    routed-consistency oracles with per-replica committed logs and
    post-drain routed owner lookups. *)

val repo_failover : t
(** Engines + all three replicas crashable: repository-crash and
    leader-partition schedules — killing the leader mid-placement-write
    must lose no placements. *)

val repo_election : t
(** A {e scripted} crash of the bootstrap leader mid-run puts a
    failover election into the reference run itself; schedules then aim
    faults at the surviving replicas inside the election window
    (election races). *)

val replication_all : t list

val all : t list
(** The classic workloads only — the stock exploration population (the
    recovery and replication families are opted into via
    {!recovery_all} / {!replication_all} / {!by_name}). *)

val by_name : string -> t option
(** Resolves {!all}, {!recovery_all} and {!replication_all} members. *)
