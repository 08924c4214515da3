(** Deterministic discrete-event simulation kernel.

    Virtual time is an integer number of microseconds. Events scheduled
    at equal times fire in scheduling order (a monotonically increasing
    sequence number breaks ties), so a whole run is reproducible.

    The same-instant rule: work {!settle}d at an instant runs after
    every event of that instant, including those the events themselves
    schedule there, and before the clock moves on. The engine and the
    baseline judge an instance's readiness this way, once per instant,
    so which of several same-instant completions was delivered first
    does not decide anything: declaration order does. *)

type time = int
(** Virtual microseconds since the start of the run. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

val ms : int -> time
(** [ms n] is [n] milliseconds expressed in virtual microseconds. *)

val sec : int -> time
(** [sec n] is [n] seconds expressed in virtual microseconds. *)

val create : ?seed:int64 -> unit -> t
(** Fresh simulator; [seed] (default 1) initialises the root RNG. *)

val now : t -> time

val rng : t -> Rng.t
(** The root RNG of the run. Derive per-component generators with
    {!Rng.split} at setup time, never during the run, to keep component
    behaviour independent of interleavings. *)

val events : t -> Event.bus
(** The run's observability bus. Every layer (engine, RPC, transactions)
    publishes typed {!Event.t}s here; subscribers (metrics, the fault
    explorer) attach once at setup. *)

val emit : t -> ?src:string -> Event.t -> unit
(** [emit t ~src ev] publishes [ev] on {!events} stamped with {!now}.
    [src] identifies the publishing component (typically a node id) so
    subscribers can separate per-engine streams; default [""]. *)

val schedule : t -> delay:time -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t + delay]. A negative delay
    is clamped to zero (runs after the current event). *)

val at : t -> time:time -> (unit -> unit) -> handle
(** [at t ~time f] runs [f] at absolute virtual [time]; clamped to now. *)

val settle : t -> (unit -> unit) -> unit
(** [settle t f] runs [f] at the current instant once no event at that
    instant is left; settled thunks run in the order they were settled,
    and an event that a thunk schedules at the instant runs before the
    next thunk. A settled thunk cannot be cancelled: fence it as any
    other continuation. *)

val cancel : t -> handle -> unit
(** [cancel t h] drops [h]'s action at once, so whatever its closure
    captured can be collected before the event's time arrives; the
    cancelled event never fires and never moves the clock. Cancelling an
    event that has already fired, or was already cancelled, does
    nothing. The firing order of the other events is unchanged. Dead
    slots are reclaimed lazily: when they outnumber the live events, one
    O(n) pass compacts the queue. *)

val is_live : handle -> bool
(** [true] until the event fires or is cancelled. *)

val pending : t -> int
(** Number of live events: scheduled and neither fired nor cancelled,
    plus the settled thunks not yet run. *)

val run : ?until:time -> t -> unit
(** Executes events in time order until the queue drains, or virtual
    time would exceed [until] (events after [until] stay queued). *)

val step : t -> bool
(** Executes exactly one event or settled thunk. Returns [false] when
    nothing is left. *)
