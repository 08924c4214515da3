(** Minimal binary min-heap, specialised by a comparison function.

    Used as the pending-event queue of the simulator. Not thread-safe;
    the simulator is single-threaded by design. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** An empty heap. A slot it vacates keeps its old element until a later
    push overwrites it, which only matters for elements that hold heap
    blocks; prefer {!create_filled} for those. *)

val create_filled : cmp:('a -> 'a -> int) -> filler:'a -> 'a t
(** An empty heap that overwrites every slot it vacates with [filler],
    so a popped element is no longer reachable from the heap. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option

val pop : 'a t -> 'a option
(** Removes and returns the minimum element, or [None] when empty. *)

exception Empty

val pop_exn : 'a t -> 'a
(** Like {!pop} but without the option allocation; raises [Empty] on an
    empty heap. This is the simulator's hot-loop entry point. *)

val top : 'a t -> 'a
(** Like {!peek} but without the option allocation; raises [Empty] on an
    empty heap. *)

val filter_inplace : 'a t -> ('a -> bool) -> unit
(** [filter_inplace t keep] drops every element for which [keep] is
    false, in one O(n) pass without allocating. Vacated slots get the
    filler of a {!create_filled} heap. Pop order of the kept elements is
    unchanged when [cmp] is a total order. *)
