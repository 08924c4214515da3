(** Persistent workflow-instance state: record types and the typed rows
    that carry them to and from the engine node's object store.

    Everything the execution service needs to resume an instance after
    an engine-node crash is written (under transactions) as {!row}s;
    each {!field} documents its key. A path [P] is the [/]-joined chain
    of task names from the root. *)

type path = string list

type task_state =
  | Waiting of { attempt : int }
  | Running of { attempt : int; set : string; started : Sim.time; deadline : Sim.time }
  | Done of {
      attempt : int;
      output : string;
      kind : Ast.output_kind;
      objects : (string * Value.obj) list;
    }
  | Failed of string

type chosen = { c_set : string; c_inputs : (string * Value.obj) list }

type status =
  | Wf_running
  | Wf_done of { output : string; objects : (string * Value.obj) list }
  | Wf_failed of string

type meta = {
  m_script : string;
  m_root : string;
  m_inputs : (string * Value.obj) list;
  m_status : status;
}

val path_to_string : path -> string

(** {1 Rows}

    Every durable fact about an instance is one typed row: a {!field}
    names the fact and types its value, and a {!row} writes or deletes
    it; a field's path [P] is the {!path_to_string} of the task's path.
    This module is the only one that builds or parses the keys:
    {!encode} turns a row into the exact store bytes, {!decode} turns a
    committed key and value back into the row. {!Instate.apply} is then
    the only code that changes an instance's mirror, both on commit (the
    typed rows just persisted) and at recovery (the decoded committed
    rows). *)

type marks = (string * (string * Value.obj) list) list
(** Marks released so far, in release order. *)

type repeat = string * (string * Value.obj) list
(** The last repeat outcome and its objects. *)

type _ field =
  | Dir : int field
      (** [wf:dir:I] — the engine's launch sequence number for [I], one
          O(1) row per instance outside its prefix; recovery sorts by it
          to restore launch order *)
  | Meta : meta field  (** [wf:I:meta] *)
  | Reconf : string field  (** [wf:I:reconf] — the current script text *)
  | Task : string -> task_state field  (** [wf:I:t:P] *)
  | Chosen : string -> chosen field  (** [wf:I:c:P] *)
  | Marks : string -> marks field  (** [wf:I:m:P] *)
  | Repeat : string -> repeat field  (** [wf:I:r:P] *)
  | Timer_fired : string * string -> unit field
      (** [wf:I:timer:P:S], valued ["1"] — the timeout of input set [S]
          has fired *)
  | Timer_armed : string * string -> Sim.time field
      (** [wf:I:timerarm:P:S] — absolute deadline of the armed timer of
          input set [S]; recovery resumes the remaining wait instead of
          restarting the full timeout *)
  | Backoff : string -> (int * Sim.time) field
      (** [wf:I:b:P] — a policy retry of [P] waits out its backoff: the
          attempt waiting and its absolute fire time. Written in the same
          transaction as the attempt bump, so a crash mid-backoff
          recovers the remaining budget and the remaining wait. *)
  | Compensated : string -> unit field
      (** [wf:I:comp:P], valued ["1"] — the compensation of [P]'s abort
          is recorded; written atomically with the abort completion *)
  | History : int -> string field
      (** [wf:I:h:N] — the [N]-th audit row, valued with
          {!encode_history}: the mirror only counts these rows, so they
          stay encoded both ways *)

type row = Put : 'a field * 'a -> row | Delete : 'a field -> row

val key : string -> 'a field -> string
(** [key iid field] is the store key of [field] of instance [iid]. *)

val encode : string -> row -> string * string option
(** [encode iid row] is the store write of [row] of instance [iid]
    ([None] = delete). *)

val decode : string -> read:(string -> string option) -> string -> row option
(** [decode iid ~read key] is the row that the committed [key] of
    instance [iid] and its value ([read key]) hold; [None] for a key of
    another instance, a {!Dir} or {!History} key (see {!history_index}),
    a key of no known kind or one [read] finds no value for. A field
    whose value is [()] is not read. Raises
    [Wire.Malformed] on a malformed value. Apply it to [iid] and [read]
    once to decode many keys. *)

val decode_value : 'a field -> string -> 'a
(** The typed value of one committed field. Raises [Wire.Malformed]. *)

val dir_prefix : string
(** Prefix of every {!Dir} row. *)

val dir_iid : string -> string option
(** The instance a {!Dir} key names. *)

val task_prefix : string -> string
(** Prefix of all [wf:I:*] keys of one instance, for scans/deletion. *)

val history_prefix : string -> string
(** Prefix of the instance's {!History} rows. *)

val key_history : string -> int -> string
(** [key iid (History n)]. *)

val history_index : string -> string -> int option
(** [history_index iid key] is [Some n] when [key] is
    [key_history iid n], else [None]: the index is in the key, so
    counting history rows reads no value. Apply it to [iid] once to test
    many keys. *)

val encode_history : Sim.time * string * string -> string
(** An audit row's value: at, kind, detail. *)

val decode_history : string -> Sim.time * string * string

val pp_task_state : Format.formatter -> task_state -> unit

val pp_status : Format.formatter -> status -> unit
