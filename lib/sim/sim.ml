type time = int

type event = {
  at : time;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
}

type handle = event

type t = {
  mutable clock : time;
  mutable next_seq : int;
  queue : event Heap.t;
  root_rng : Rng.t;
  events : Event.bus;
}

let ms n = n * 1_000

let sec n = n * 1_000_000

let compare_event a b =
  match compare a.at b.at with 0 -> compare a.seq b.seq | c -> c

(* fills the queue's vacated slots, so a fired event and its closure
   are garbage as soon as the event has run *)
let no_event = { at = max_int; seq = max_int; action = ignore; cancelled = true }

let create ?(seed = 1L) () =
  {
    clock = 0;
    next_seq = 0;
    queue = Heap.create_filled ~cmp:compare_event ~filler:no_event;
    root_rng = Rng.create seed;
    events = Event.bus ();
  }

let now t = t.clock

let rng t = t.root_rng

let events t = t.events

let emit t ?(src = "") ev = Event.emit t.events ~at:t.clock ~src ev

let at t ~time action =
  let at = max time t.clock in
  let ev = { at; seq = t.next_seq; action; cancelled = false } in
  t.next_seq <- t.next_seq + 1;
  Heap.push t.queue ev;
  ev

let schedule t ~delay action = at t ~time:(t.clock + max 0 delay) action

let cancel _t handle = handle.cancelled <- true

let pending t = Heap.length t.queue

let fire t ev =
  t.clock <- ev.at;
  if not ev.cancelled then ev.action ()

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev ->
    fire t ev;
    true

(* The drain loop is the per-event hot path: one [pop_exn] per event, no
   option boxing, and the common no-limit case skips the bound check. *)
let run ?until t =
  (match until with
  | None -> while not (Heap.is_empty t.queue) do fire t (Heap.pop_exn t.queue) done
  | Some limit ->
    let continue = ref true in
    while !continue do
      if Heap.is_empty t.queue || (Heap.top t.queue).at > limit then continue := false
      else fire t (Heap.pop_exn t.queue)
    done);
  match until with Some limit when limit > t.clock -> t.clock <- limit | _ -> ()
