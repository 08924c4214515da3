(** Log record and message types of the transaction protocol, with
    their wire codecs. Shared by {!Participant} and {!Txn}. *)

type write = string * string option
(** key, value; [None] deletes the key at commit *)

(** Participant intentions-log records, written by 2PC alone: the
    local one-phase lane ({!Participant.commit_local}) logs nothing. *)
type precord =
  | P_prepared of { txid : string; coordinator : string; writes : write list }
  | P_committed of string
  | P_aborted of string

(** Coordinator decision-log records. *)
type crecord =
  | C_incarnation
  | C_committed of { txid : string; participants : string list }
  | C_done of string

val service_prepare : string
val service_commit : string
val service_abort : string
val service_status : string

val enc_prepare_req : txid:string -> coordinator:string -> writes:write list -> string

val dec_prepare_req : string -> string * string * write list
(** txid, coordinator, writes *)

val enc_vote : bool -> string

val dec_vote : string -> bool

val enc_txid : string -> string

val dec_txid : string -> string

val enc_status_reply : [ `Committed | `Aborted | `Pending ] -> string

val dec_status_reply : string -> [ `Committed | `Aborted | `Pending ]
