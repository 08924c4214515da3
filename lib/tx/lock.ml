module String_set = Set.Make (String)

type state =
  | Readers of String_set.t
  | Writer of string

type outcome =
  | Granted
  | Conflict of string

(* [held] maps each transaction to the keys it holds a lock on, so a
   release costs what the transaction holds, not the size of [table]
   (whose bucket array never shrinks after a burst of transactions). *)
type t = {
  table : (string, state) Hashtbl.t;
  held : (string, string list ref) Hashtbl.t;
}

let create () = { table = Hashtbl.create 64; held = Hashtbl.create 16 }

let hold t ~key ~txid =
  match Hashtbl.find_opt t.held txid with
  | Some keys -> keys := key :: !keys
  | None -> Hashtbl.add t.held txid (ref [ key ])

let read t ~key ~txid =
  match Hashtbl.find_opt t.table key with
  | None ->
    Hashtbl.replace t.table key (Readers (String_set.singleton txid));
    hold t ~key ~txid;
    Granted
  | Some (Readers readers) ->
    if not (String_set.mem txid readers) then begin
      Hashtbl.replace t.table key (Readers (String_set.add txid readers));
      hold t ~key ~txid
    end;
    Granted
  | Some (Writer owner) -> if owner = txid then Granted else Conflict owner

(* The exclusive grant rule over a key's [state]: [None] when [txid] may
   write it (free, already its own, or read by it alone), else a holder. *)
let write_conflict state ~txid =
  match state with
  | None -> None
  | Some (Writer owner) -> if owner = txid then None else Some owner
  | Some (Readers readers) ->
    if String_set.is_empty readers || String_set.equal readers (String_set.singleton txid) then
      None
    else Some (Option.value (String_set.find_first_opt (fun r -> r <> txid) readers) ~default:"?")

let write t ~key ~txid =
  let state = Hashtbl.find_opt t.table key in
  match write_conflict state ~txid with
  | Some holder -> Conflict holder
  | None ->
    (match state with
    | Some (Writer _) -> ()
    | Some (Readers readers) ->
      (* an upgrade keeps the key its read already recorded *)
      if String_set.is_empty readers then hold t ~key ~txid;
      Hashtbl.replace t.table key (Writer txid)
    | None ->
      Hashtbl.replace t.table key (Writer txid);
      hold t ~key ~txid);
    Granted

let write_free t ~key ~txid = Option.is_none (write_conflict (Hashtbl.find_opt t.table key) ~txid)

let holds_read t ~key ~txid =
  match Hashtbl.find_opt t.table key with
  | Some (Readers readers) -> String_set.mem txid readers
  | Some (Writer owner) -> owner = txid
  | None -> false

let holds_write t ~key ~txid =
  match Hashtbl.find_opt t.table key with Some (Writer owner) -> owner = txid | _ -> false

let release_all t ~txid =
  match Hashtbl.find_opt t.held txid with
  | None -> ()
  | Some keys ->
    Hashtbl.remove t.held txid;
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.table key with
        | Some (Writer owner) when owner = txid -> Hashtbl.remove t.table key
        | Some (Readers readers) when String_set.mem txid readers ->
          let rest = String_set.remove txid readers in
          if String_set.is_empty rest then Hashtbl.remove t.table key
          else Hashtbl.replace t.table key (Readers rest)
        | Some (Writer _ | Readers _) | None -> ())
      !keys

let reset t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.held

let held_total t =
  Hashtbl.fold
    (fun _ state acc ->
      match state with
      | Writer _ -> acc + 1
      | Readers readers -> acc + String_set.cardinal readers)
    t.table 0

let held_keys t ~txid =
  match Hashtbl.find_opt t.held txid with
  | Some keys -> List.sort String.compare !keys
  | None -> []
