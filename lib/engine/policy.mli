(** A task's recovery policy, resolved for execution, and the two
    decisions the engine asks of it.

    The compiled {!Schema.policy} of a task is merged with the engine's
    default attempt budget. The durable per-path attempt counter that
    {!Wstate.Running} persists drives everything: the ranked
    implementation codes (primary, alternatives, then a timeout
    substitute) partition the attempt axis into bands of [1 + retry]
    attempts, one band per code, so which code an attempt runs — and
    therefore which alternative a recovered engine redispatches — is a
    pure function of the counter.

    Pure, like {!Sched}: the engine persists and executes what
    {!after_failure} and {!after_timeout} decide. *)

type t

val resolve : Schema.task -> default_max_attempts:int -> t
(** The primary code is the task's ["code"] implementation kv. A task
    without a declared [recovery] section gets one band of
    [default_max_attempts] attempts of it and no backoff. *)

val declared : t -> bool
(** The task declares a [recovery] section: its retries leave
    [policy-retry] audit rows. *)

val code : t -> attempt:int -> string
(** The implementation code [attempt] dispatches (the last band is
    sticky for out-of-range attempts). *)

(** What moved the attempt counter on. *)
type cause =
  | Failure  (** the attempt failed, or timed out without a [timeout] clause *)
  | Timeout  (** a declared [timeout ... then] clause jumped to a band start *)

type decision =
  | Retry of {
      attempt : int;  (** the attempt to dispatch next *)
      delay_ms : int;  (** backoff before dispatching it, jitter included; 0 = now *)
      code : string;  (** the implementation code [attempt] runs *)
      substituted : bool;  (** [attempt] opens a new band, so another code runs *)
      cause : cause;
          (** a [Timeout] jump is never delayed and is recorded as a
              substitution only, not as a retry *)
    }
  | Give_up of string  (** the reason the task fails with *)

val after_failure :
  t -> salt:string -> iid:string -> path:string list -> attempt:int -> decision
(** Attempt [attempt] just failed: retry within its band after an
    exponential backoff ([min cap (base * 2^(k-1))] before the k-th
    retry), advance to the next band at once, or give up with
    ["gave up after N attempts"]. The substitute band is entered only by
    a timeout, so below it the ceiling is the primary and alternatives'
    bands. The backoff's jitter, in [[0, jitter)], is a pure hash of
    ([salt], [iid], [path], attempt), never a runtime rng draw, so the
    same seed reproduces the same spread under any interleaving. *)

val after_timeout :
  t -> salt:string -> iid:string -> path:string list -> attempt:int -> decision
(** Attempt [attempt]'s watchdog expired. Without a declared [timeout]
    clause this is {!after_failure}. [then abort] gives up with
    ["recovery timeout"]; [then alternative] jumps to the next base
    band's start, or gives up with ["recovery alternatives exhausted"]
    from the last one; [then substitute] jumps to the substitute band,
    and once in it retries there as after a failure. *)
