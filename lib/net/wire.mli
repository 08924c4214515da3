(** Tiny netstring-style wire codec.

    Every message crossing the simulated network is a string; services
    use these combinators instead of ad-hoc [Printf]/[Scanf] so that
    payloads containing delimiters round-trip safely. *)

exception Malformed of string

type 'a embed = Buffer.t -> 'a -> unit
(** Buffer-threaded encoder: appends the framed value to a shared
    buffer. Composing [embed]s costs one pass over the data regardless
    of nesting depth. A framed sub-encoding (a string field that holds
    an encoding of its own) is best rendered with {!run} before the
    outer [run] starts. *)

type decoder

(** {1 Encoders} *)

val b_string : string embed
val b_int : int embed
val b_bool : bool embed
val b_pair : 'a embed -> 'b embed -> ('a * 'b) embed
val b_triple : 'a embed -> 'b embed -> 'c embed -> ('a * 'b * 'c) embed
val b_list : 'a embed -> 'a list embed
val b_option : 'a embed -> 'a option embed

val b_result : 'a embed -> ('a, string) result embed
(** [Ok v] as [true] then [v]; [Error reason] as [false] then the
    reason. *)

val run : 'a embed -> 'a -> string
(** Render an embed to a string, through a reused per-domain buffer. *)

(** {1 Decoders} *)

val d_string : decoder -> string
val d_int : decoder -> int
val d_bool : decoder -> bool
val d_pair : (decoder -> 'a) -> (decoder -> 'b) -> decoder -> 'a * 'b
val d_triple : (decoder -> 'a) -> (decoder -> 'b) -> (decoder -> 'c) -> decoder -> 'a * 'b * 'c
val d_list : (decoder -> 'a) -> decoder -> 'a list
val d_option : (decoder -> 'a) -> decoder -> 'a option
val d_result : (decoder -> 'a) -> decoder -> ('a, string) result

val decode : (decoder -> 'a) -> string -> 'a
(** Runs the decoder and checks the whole input was consumed. *)
