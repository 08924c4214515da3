(** Metrics registry: counters and histograms fed by the typed event
    bus, replacing the mutable counters that used to live on
    [Engine.t].

    {!attach} subscribes the registry to a bus; every {!Event.t} bumps a
    generic [events.<tag>] counter, and engine-relevant events also bump
    the stable [engine.*] counters backing the [Engine.*_total]
    accessors. *)

type t

val create : unit -> t

val attach : ?src:string -> t -> Event.bus -> unit
(** Subscribe to [bus]; call once, at setup. With [src], only events
    published under that source label are counted — an engine passes its
    own node id so co-hosted engines keep separate registries. *)

val attach_labelled : t -> Event.bus -> unit
(** Cluster-wide subscription: counts everything like {!attach} without
    a filter, and additionally keys the headline counters per source as
    [cluster.<src>.<counter>] (dispatches, completions, launches,
    concluded, recoveries) so one registry shows the whole cluster and
    its per-engine breakdown. *)

val incr : ?by:int -> t -> string -> unit

val value : t -> string -> int
(** Current counter value; 0 if never incremented. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val samples : t -> string -> int list
(** Raw histogram samples in recording order; [] if unknown. *)
