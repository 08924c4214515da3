exception Unavailable of string

type op =
  | Put of string * string
  | Del of string
  | Snapshot of (string * string) list

type t = {
  name : string;
  wal : op Wal.t;
  cache : (string, string) Hashtbl.t;
  mutable up : bool;
  mutable replays : int;
}

let create ~name =
  { name; wal = Wal.create ~name; cache = Hashtbl.create 64; up = true; replays = 0 }

let name t = t.name

let available t = t.up

let check t = if not t.up then raise (Unavailable t.name)

let put t key value =
  check t;
  Wal.append t.wal (Put (key, value));
  Hashtbl.replace t.cache key value

let get t key =
  check t;
  Hashtbl.find_opt t.cache key

let mem t key =
  check t;
  Hashtbl.mem t.cache key

let delete t key =
  check t;
  if Hashtbl.mem t.cache key then begin
    Wal.append t.wal (Del key);
    Hashtbl.remove t.cache key
  end

let keys t =
  check t;
  let all = Hashtbl.fold (fun k _ acc -> k :: acc) t.cache [] in
  List.sort String.compare all

(* A top-level loop over explicit arguments: [String.starts_with]'s local
   loop is a closure, allocated on every call without flambda. *)
let rec same_from prefix key i =
  i = String.length prefix
  || (String.unsafe_get prefix i = String.unsafe_get key i && same_from prefix key (i + 1))

let has_prefix ~prefix key = String.length key >= String.length prefix && same_from prefix key 0

let keys_with_prefix t ~prefix =
  check t;
  let keep k _ acc = if has_prefix ~prefix k then k :: acc else acc in
  List.sort String.compare (Hashtbl.fold keep t.cache [])

let fold t ~init ~f =
  let step acc key =
    match Hashtbl.find_opt t.cache key with
    | Some value -> f acc key value
    | None -> acc
  in
  List.fold_left step init (keys t)

let crash t =
  Hashtbl.reset t.cache;
  t.up <- false

let replay_op t = function
  | Put (k, v) -> Hashtbl.replace t.cache k v
  | Del k -> Hashtbl.remove t.cache k
  | Snapshot bindings ->
    Hashtbl.reset t.cache;
    List.iter (fun (k, v) -> Hashtbl.replace t.cache k v) bindings

let recover t =
  if not t.up then begin
    Hashtbl.reset t.cache;
    List.iter (replay_op t) (Wal.records t.wal);
    t.up <- true;
    t.replays <- t.replays + 1
  end

let checkpoint t =
  check t;
  let bindings = fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
  Wal.rewrite t.wal [ Snapshot (List.rev bindings) ]

let wal_length t = Wal.length t.wal

let writes_total t = Wal.appended_total t.wal

let replays_total t = t.replays
