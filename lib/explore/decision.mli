(** Decision-point harvesting from the typed event bus.

    A fault-free reference run is observed through {!Event.bus}; every
    event marking a commit decision, a protocol message send, a dispatch
    or a recovery boundary becomes a {!point} — an instant at which the
    system is mid-decision and a well-timed crash or partition is most
    likely to expose a recovery bug. The schedule generators in
    {!Explore} aim faults at these instants instead of sweeping a blind
    millisecond grid. *)

type point = {
  p_at : Sim.time;  (** virtual instant of the decision *)
  p_node : string;  (** node making the decision (event source label) *)
  p_kind : string;
      (** classification: ["commit"], ["one-phase"], ["batch-flush"],
          ["dispatch"], ["impl-complete"], ["timer"], ["launch"],
          ["relaunch"], ["conclude"], ["rpc:<service>"] or
          ["loopback:<service>"] *)
  p_label : string;  (** what was decided: txid, task path or iid *)
  p_peer : string option;
      (** message destination when the decision crossed (or could have
          crossed) the network — the partition target *)
}

type t
(** A mutable collector accumulating points as events arrive. *)

val collector : unit -> t

val classify : src:string -> Event.t -> (string * string * string option) option
(** [(kind, label, peer)] for events that are decision points, [None]
    otherwise. Only transaction ([tx.*]), workflow ([wf.*]) and
    repository ([repo.*]) RPC services count as protocol boundaries. *)

val subscriber : t -> Event.subscriber
(** Subscribe this to {!Sim.events} before the reference run. *)

val points : t -> point list
(** Distinct points harvested so far, sorted by time (then fields). *)

val makespan : t -> Sim.time
(** Latest decision instant seen (0 when empty) — the horizon the
    schedule generators spread soak faults across. *)

val by_kind : point list -> (string * int) list
(** Coverage tally: how many points of each kind, sorted by kind. *)
