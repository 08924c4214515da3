(** Simulated datagram network.

    Messages between nodes suffer latency (base + exponential jitter),
    probabilistic loss, partitions, and are dropped when the destination
    is down. Delivery runs the destination's service handler; any reply
    value is discarded — request/response lives in {!Rpc}. *)

type config = {
  base_latency : Sim.time;  (** fixed one-way latency *)
  jitter_mean : Sim.time;  (** mean of the exponential jitter component *)
  loss : float;  (** per-message drop probability, in [0,1] *)
}

val default_config : config
(** 1ms base latency, 0.2ms mean jitter, no loss. *)

type t

val create : ?config:config -> Sim.t -> t

val sim : t -> Sim.t

val config : t -> config

val add_node : t -> id:string -> Node.t
(** Creates and registers a node. Raises [Invalid_argument] on a
    duplicate id. *)

val node : t -> string -> Node.t
(** Raises [Not_found] for unknown ids. *)

val find_node : t -> string -> Node.t option

val partition_on : t -> string -> string -> unit
(** Sever two-way connectivity between the named nodes. *)

val partition_off : t -> string -> string -> unit

val send : t -> src:string -> dst:string -> service:string -> body:string -> unit
(** Fire-and-forget message. Silently dropped when the source is down,
    the link is lossy/partitioned, the destination is down at delivery
    time, or no such service is registered. *)

(** Counters for benches and tests. *)

val sent_total : t -> int

val delivered_total : t -> int

val dropped_total : t -> int
