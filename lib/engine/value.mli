(** Runtime values carried by workflow objects.

    The script layer only moves {e references} between tasks and checks
    their classes; payloads are opaque to it. Implementations produce
    and consume these values. Every value serialises to a string (the
    engine persists task outputs in the transactional store and ships
    them over RPC). *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Pair of t * t

(** A workflow object: a class tag (checked by the language) plus a
    payload. *)
type obj = { cls : string; payload : t }

val obj : cls:string -> t -> obj

val encode : t -> string

val decode : string -> t
(** Raises {!Wire.Malformed} on corrupt input. *)

val encode_obj : obj -> string

val decode_obj : string -> obj

val encode_bindings : (string * obj) list -> string

val decode_bindings : string -> (string * obj) list

val pp : Format.formatter -> t -> unit

val pp_obj : Format.formatter -> obj -> unit
