(** Task host: executes implementation plans on a node.

    The execution service dispatches a task here ([wf.exec]); the host
    resolves the code name in its registry, runs the plan's steps over
    simulated time, pushes marks ([wf.mark]) and the final report
    ([wf.done]) back to the engine with retries. A node crash kills
    every in-flight plan (the node's incarnation fences zombie steps);
    the engine's watchdog re-dispatches. *)

type t

val attach : rpc:Rpc.t -> node:Node.t -> registry:Registry.t -> engine_node:string -> t
