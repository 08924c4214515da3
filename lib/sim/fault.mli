(** Fault plans: declarative schedules of crashes, restarts and network
    partitions, applied to a run at setup time.

    The plan only names faults; their semantics (what "crash" does) are
    provided by the layer that owns the affected component, via the
    [on] callback of {!apply}. *)

type action =
  | Crash of string  (** crash the named node: volatile state is lost *)
  | Restart of string  (** restart the named node: recovery runs *)
  | Partition_on of string * string
      (** sever connectivity between the two named nodes (both ways) *)
  | Partition_off of string * string  (** heal the partition *)

type t = (Sim.time * action) list

val empty : t

val crash_restart : node:string -> at:Sim.time -> down_for:Sim.time -> t
(** Crash [node] at [at] and restart it [down_for] later. *)

val partition : a:string -> b:string -> at:Sim.time -> heal_after:Sim.time -> t
(** Temporary two-way partition between [a] and [b]. *)

val periodic_crashes :
  node:string -> period:Sim.time -> down_for:Sim.time -> count:int -> t
(** [count] crash/restart cycles, the k-th crash at [k * period]. *)

val ( @+ ) : t -> t -> t
(** Plan union. *)

val validate : nodes:string list -> t -> (unit, string) result
(** Static well-formedness check against the named node population,
    considering actions in execution order: every action must name known
    nodes, a [Crash] must not hit a node that is already down, a
    [Restart] must find its node crashed, and a partition must involve
    two distinct known nodes. Layers that apply plans ({!Testbed},
    {!Cluster}) run this first so a typoed node id or an unpaired
    restart is an error instead of a silent no-op. *)

val apply : Sim.t -> t -> on:(action -> unit) -> unit
(** Schedule every planned action on the simulator. The plan is taken as
    given — callers wanting the well-formedness guarantee run
    {!validate} first. *)

val to_string : t -> string
(** One-line rendering of a whole plan, for reports and test output. *)
