type outcome =
  | Granted
  | Conflict of string

(* [table] maps each locked key to its writer; [held] maps each
   transaction to the keys it holds, so a release costs what the
   transaction holds, not the size of [table] (whose bucket array never
   shrinks after a burst of transactions). *)
type t = {
  table : (string, string) Hashtbl.t;
  held : (string, string list ref) Hashtbl.t;
}

let create () = { table = Hashtbl.create 64; held = Hashtbl.create 16 }

let write t ~key ~txid =
  match Hashtbl.find_opt t.table key with
  | Some owner -> if owner = txid then Granted else Conflict owner
  | None ->
    Hashtbl.replace t.table key txid;
    (match Hashtbl.find_opt t.held txid with
    | Some keys -> keys := key :: !keys
    | None -> Hashtbl.add t.held txid (ref [ key ]));
    Granted

let write_free t ~key ~txid =
  match Hashtbl.find_opt t.table key with Some owner -> owner = txid | None -> true

let release_all t ~txid =
  match Hashtbl.find_opt t.held txid with
  | None -> ()
  | Some keys ->
    Hashtbl.remove t.held txid;
    List.iter (fun key -> Hashtbl.remove t.table key) !keys

let reset t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.held

let held_total t = Hashtbl.length t.table

let held_keys t ~txid =
  match Hashtbl.find_opt t.held txid with
  | Some keys -> List.sort String.compare !keys
  | None -> []
