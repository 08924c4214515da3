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

let available t = t.up

let check t = if not t.up then raise (Unavailable t.name)

let replay_op t = function
  | Put (k, v) -> Hashtbl.replace t.cache k v
  | Del k -> Hashtbl.remove t.cache k
  | Snapshot bindings ->
    Hashtbl.reset t.cache;
    List.iter (fun (k, v) -> Hashtbl.replace t.cache k v) bindings

(* below this many records the log is never compacted *)
let compact_floor = 64

(* Rewrites the log to one snapshot of the live bindings. Keys are
   unique, so the snapshot replays the same in any order: one fold, no
   sort. The fold walks every bucket, and a hash table never shrinks, so
   once the table has far more buckets than bindings the cache is
   rebuilt from the snapshot at its live size; otherwise a store that
   once held 200k keys paid about 5 µs per put for the rest of its life
   (EXPERIMENTS.md A21). *)
let checkpoint t =
  check t;
  let live = Hashtbl.length t.cache in
  let snapshot = Snapshot (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cache []) in
  Wal.rewrite t.wal [ snapshot ];
  if (Hashtbl.stats t.cache).num_buckets > 4 * max compact_floor live then replay_op t snapshot

(* Once the log holds more than twice as many records as there are live
   bindings, a snapshot replaces it, so it never exceeds
   [max compact_floor (2 * live)]. The O(live) rewrite follows at least
   [live] appends since the last one, so a write stays amortised O(1). *)
let append t op =
  Wal.append t.wal op;
  let records = Wal.length t.wal in
  if records > compact_floor && records > 2 * Hashtbl.length t.cache then checkpoint t

let put t key value =
  check t;
  Hashtbl.replace t.cache key value;
  append t (Put (key, value))

let get t key =
  check t;
  Hashtbl.find_opt t.cache key

let mem t key =
  check t;
  Hashtbl.mem t.cache key

let delete t key =
  check t;
  if Hashtbl.mem t.cache key then begin
    Hashtbl.remove t.cache key;
    append t (Del key)
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

let recover t =
  if not t.up then begin
    Hashtbl.reset t.cache;
    List.iter (replay_op t) (Wal.records t.wal);
    t.up <- true;
    t.replays <- t.replays + 1
  end

let wal_length t = Wal.length t.wal

let writes_total t = Wal.appended_total t.wal

let replays_total t = t.replays
