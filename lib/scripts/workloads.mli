(** Synthetic workload generators for the benches: parameterised script
    families exercising specific structural dimensions (pipeline depth,
    fan-out width, compound nesting, alternative-source masking). Each
    generator returns the script source plus its root name; the matching
    [register_*] binds the implementations. *)

val chain : n:int -> string * string
(** Linear pipeline of [n] steps, each consuming its predecessor's
    output (Fig 1's t1→t2 edge repeated). Code name: [w.step]. *)

val chain_remote : n:int -> host:string -> string * string
(** {!chain} with every step pinned to the task-host node [host]
    (["location"] implementation binding) — dispatches and completion
    reports cross the network, so crash and partition schedules can land
    on the engine↔host message boundaries. *)

val fanout : width:int -> string * string
(** One producer, [width] parallel workers, one join consuming all of
    them (Fig 1's diamond generalised). Codes: [w.step], [w.join]. *)

val fanout_remote : width:int -> host:string -> string * string
(** {!fanout} with every worker pinned to the task-host node [host], so
    network jitter spreads the completions that feed the join. *)

val nested : depth:int -> string * string
(** Compound tasks nested [depth] deep, one worker at the bottom
    (Fig 5 / Fig 9's hierarchy, deepened). Code: [w.step]. *)

val alternatives : k:int -> alive:int -> string * string
(** A consumer whose single input lists [k] alternative producers in
    order; only producer [alive] (1-based) yields a usable output, the
    others finish in an outcome that carries nothing (application-level
    fault masking, §3). Codes: [w.dead], [w.step]. *)

(** {1 Declarative-recovery workloads}

    One small script per [recovery { ... }] construct, all of the shape
    [flow { work [; undo] }] with the leaf pinned to [host] so the
    recovering task's dispatches and reports cross the network. The
    misbehaviour lives in the implementations bound by
    {!register_recovery}. *)

val recovery_retry : host:string -> string * string
(** [work] declares [retry 8 backoff 5 max 40]; its implementation
    [r.flaky] crashes on attempts 1–2 and succeeds on attempt 3 — the
    spare budget absorbs attempts wasted by crash/partition windows. *)

val recovery_timeout : host:string -> string * string
(** [work] declares [timeout 50 then substitute "r.sub"]; [r.hang]
    computes for 200ms, so only the watchdog-triggered substitute can
    conclude the task. *)

val recovery_alternative : host:string -> string * string
(** [work] declares [retry 4; alternative "r.alive"]; the primary
    [r.dead] always crashes, so the failure-driven band advance must
    reach the alternative. *)

val recovery_compensate : host:string -> string * string
(** [work] declares [compensate undo] and always terminates in its
    abort outcome; the sibling [undo] must run exactly once, and the
    flow concludes through its [cancelled] outcome. *)

val register_recovery : ?work:Sim.time -> Registry.t -> unit
(** Bind the [r.*] implementations the recovery workloads name. *)

val register : ?work:Sim.time -> Registry.t -> unit
(** Bind [w.step], [w.join] and [w.dead]. *)

val seed_inputs : (string * Value.obj) list
(** The external input every generated root expects. *)
