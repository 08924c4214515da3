(** ASCII Gantt chart of a workflow run, reconstructed from an engine's
    typed event log ({!Engine.trace}) — regenerates the paper's Fig 1
    timeline ("t2 and t3 start once t1 finishes and t4 starts after
    both") as text.

    One row per task execution interval (first [Task_started] or
    [Scope_opened] to the matching [Task_completed]), drawn over a scaled
    time axis; [Task_marked] events are drawn as [*] at their release
    instant. *)

val render : ?width:int -> (Sim.time * Event.t) list -> string
(** [width] is the number of columns of the bar area (default 60). Rows
    appear in order of first event; events that are not task
    transitions are ignored. An empty log renders an empty string. *)
