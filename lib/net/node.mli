(** A simulated host.

    A node owns services (named message handlers) and crash hooks.
    Crashing a node loses all volatile state: components register
    [on_crash]/[on_recover] hooks (e.g. a {!Rdal_store.Kvstore.t} wipes
    its cache on crash and replays its WAL on recovery).

    The crash fence: nothing a node scheduled before a crash runs after
    it. {!incarnation} is the node's one counter for this rule. [crash]
    and [recover] each bump it before their hooks run, so every
    continuation a node schedules (a timer, a deferred event) captures
    it while the node is up and runs only while it is unchanged — that
    is, while the node has stayed up since. Components keep no private
    crash counter of their own. Callbacks of {!Rpc.call} need no check:
    the RPC layer never runs one after its caller crashed. *)

type t

type handler = src:string -> string -> string
(** A service handler: given the caller's node id and the request body,
    returns the reply body. Raising an exception counts as a service
    failure and the caller sees an RPC failure (after retries). *)

val create : id:string -> t

val id : t -> string

val up : t -> bool

val incarnation : t -> int
(** Starts at 0; [crash] and [recover] each add one before their hooks
    run, so it is even exactly while the node is up. A continuation
    that captured it while up may run iff it is unchanged. *)

val serve : t -> service:string -> handler -> unit
(** Registers (or replaces — "service moved") a handler. *)

val withdraw : t -> service:string -> unit

val handler : t -> service:string -> handler option

val on_crash : t -> (unit -> unit) -> unit

val on_recover : t -> (unit -> unit) -> unit

val crash : t -> unit
(** Idempotent. Bumps {!incarnation}, then runs crash hooks in
    registration order. *)

val recover : t -> unit
(** Idempotent. Bumps {!incarnation}, then runs recovery hooks in
    registration order. *)
