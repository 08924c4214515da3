(** Replay: rebuild every instance's mirror from the engine node's
    committed store, with no effect — no timer is armed and nothing is
    sent or announced. The engine's recover hook resumes what this
    returns ({!Pump.resume}). *)

type entry = {
  iid : string;
  seq : int;  (** the launch sequence number of its directory row *)
  mirror : (Instate.t, string) result option;
      (** the rebuilt mirror; [Error detail] when the stored script no
          longer compiles; [None] when no meta row sits beside the
          directory row *)
}

val replay :
  Dispatch.t ->
  compile:(script:string -> root:string -> (Schema.task, Frontend.error) result) ->
  entry list
(** One entry per directory row, in launch order (sequence number, then
    iid). Each mirror loads its instance's committed rows in sorted key
    order ({!Instate.load_committed}); its script is the reconfigured
    one when a [Reconf] row exists. *)
