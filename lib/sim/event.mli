(** Typed observability events — the spine every layer reports through.

    One flat variant covers the whole stack: workflow lifecycle and task
    transitions (engine), RPC attempts (net), transaction resolutions
    (tx) and recovery replay. Producers publish onto the {!bus} owned by
    the simulator ({!Sim.events}); subscribers fan the stream out to the
    metrics registry, the fault explorer's decision points, or anything
    else — producers never know who is listening. An engine also keeps
    the events it published itself, in order, when its [trace] config
    is on; [Gantt] renders the paper's timelines from that log.

    Times are plain [int]s (virtual microseconds, {!Sim.time}); the
    module sits below [Sim] so the simulator itself can own a bus. *)

type t =
  | Wf_launched of { iid : string; root : string }
  | Wf_concluded of { iid : string; status : string }
      (** [status] pre-rendered with [Wstate.pp_status]. *)
  | Wf_cancelled of { iid : string; reason : string }
  | Wf_relaunched of { iid : string }
      (** A launch whose rows a crash lost before they committed was
          persisted again by recovery, at the recovery instant. *)
  | Wf_reconfigured of { iid : string }
  | Wf_collected of { iid : string }  (** gc of a finished instance *)
  | Scope_opened of { path : string }  (** a compound task started *)
  | Task_started of { path : string; attempt : int }
  | Task_dispatched of { path : string; code : string; host : string; attempt : int }
      (** One implementation dispatch RPC (initial or retry). *)
  | Task_retried of { path : string; attempt : int }  (** system retry *)
  | Task_auto_restarted of { path : string }
      (** Abort outcome absorbed by the ["retries"] implementation kv. *)
  | Task_marked of { path : string; mark : string }
  | Task_repeated of { path : string; output : string; attempt : int }
  | Task_completed of {
      path : string;
      output : string;
      aborted : bool;
      duration : int;
      scope : bool;
    }
      (** [duration] in virtual us since the completing execution
          started; [aborted] for abort outcomes; [scope] when the
          completion closes a compound task (scope) rather than a basic
          task, so duration histograms can keep the two apart. *)
  | Task_failed of { path : string; reason : string }
  | Impl_completed of { path : string; output : string }
      (** An implementation reported a final (non-repeat) outcome;
          emitted before the completion is made durable. *)
  | Watchdog_fired of { path : string }
  | Timer_fired of { path : string; set : string }
  | Policy_retry of { path : string; attempt : int; delay_ms : int }
      (** A declared recovery policy scheduled a retry; [delay_ms] is
          the backoff wait (0 = immediate). Never emitted for the
          config-seeded default policy. *)
  | Policy_substituted of { path : string; code : string }
      (** A declared recovery policy switched the execution to the next
          ranked alternative, or to the [substitute] code on timeout. *)
  | Policy_compensated of { path : string; task : string }
      (** A declared recovery policy launched the compensation [task]
          after an abort outcome (once per aborted scope). *)
  | User_aborted of { path : string }
  | Recovery_replayed of { instances : int }
      (** Recovery replayed the [instances] of the committed
          directory; it comes before that recovery's [Wf_relaunched]. *)
  | Recovery_error of { detail : string }
  | Txn_failed of { detail : string }  (** an engine write set was refused; it waits to retry *)
  | Txn_resolved of { txid : string; committed : bool }
      (** Top-level commit decision (2PC) or abort. *)
  | Txn_one_phase of { txid : string }
      (** A transaction whose only participant was the coordinator's own
          node committed in one phase, with no RPC at all. *)
  | Txn_readonly_elided of { txid : string; node : string }
      (** Nothing emits it: transactions are write-only, so no
          participant is read-only. It stays while the benchmark's
          tracer ([rdalbench/tracer.ml]) still names it. *)
  | Rpc_sent of { src : string; dst : string; service : string }
  | Rpc_retried of { src : string; dst : string; service : string }
  | Rpc_timed_out of { src : string; dst : string; service : string }
  | Rpc_reply_evicted of { node : string }
      (** The bounded server-side RPC dedup cache dropped its oldest
          reply on [node] to admit a new one. *)
  | Rpc_loopback of { node : string; service : string }
      (** A self-addressed call ([src = dst], node up) delivered to the
          local handler without touching the network fabric. *)
  | Persist_batched of { requests : int; writes : int }
      (** One engine persist flush coalesced [requests] (>= 2) queued
          persist calls, [writes] total writes, into a single
          transaction. *)
  | Cons_election_started of { node : string; term : int }
      (** A consensus replica became a candidate for [term]. *)
  | Cons_leader_elected of { node : string; term : int }
      (** [node] won a quorum of votes and now leads [term]. *)
  | Cons_stepped_down of { node : string; term : int }
      (** A leader or candidate observed a higher [term] and reverted to
          follower. *)
  | Cons_committed of { node : string; index : int; term : int }
      (** The replica's commit index advanced to [index] (leader: by
          quorum count; follower: by the leader's commit watermark). *)
  | Cons_caught_up of { node : string; upto : int }
      (** A rejoining replica finished pulling the log suffix it missed
          while down or partitioned. *)

val name : t -> string
(** Stable kebab-case tag of the constructor (metrics counter keys). *)

val pp : Format.formatter -> t -> unit
(** {!name} followed by every field as [key=value], e.g.
    [task-started path=diamond/t1 attempt=1]. *)

(** {1 Bus} *)

type subscriber = at:int -> src:string -> t -> unit
(** [src] labels the component that published the event — an engine's
    node id, an RPC caller, a transaction coordinator — so that
    subscribers in a multi-engine cluster can keep per-engine streams
    apart (or aggregate across them). [""] when the producer has no
    meaningful identity. *)

type bus

val bus : unit -> bus

val subscribe : bus -> subscriber -> unit
(** Subscribers run synchronously in subscription order at every
    {!emit}; they must not re-emit. *)

val emit : bus -> at:int -> src:string -> t -> unit
