type time = int

type event = {
  at : time;
  seq : int;
  mutable action : unit -> unit;
  mutable dead : bool;  (* fired or cancelled: it will not run (again) *)
}

type handle = event

type t = {
  mutable clock : time;
  mutable next_seq : int;
  queue : event Heap.t;
  mutable dead_queued : int;  (* cancelled events still in [queue] *)
  settled : (unit -> unit) Queue.t;  (* thunks of the current instant, run after its events *)
  root_rng : Rng.t;
  events : Event.bus;
}

let ms n = n * 1_000

let sec n = n * 1_000_000

let compare_event a b =
  match compare a.at b.at with 0 -> compare a.seq b.seq | c -> c

(* fills the queue's vacated slots, so a fired event and its closure
   are garbage as soon as the event has run *)
let no_event = { at = max_int; seq = max_int; action = ignore; dead = true }

(* below this many dead slots the queue is never compacted *)
let compact_floor = 64

let create ?(seed = 1L) () =
  {
    clock = 0;
    next_seq = 0;
    queue = Heap.create_filled ~cmp:compare_event ~filler:no_event;
    dead_queued = 0;
    settled = Queue.create ();
    root_rng = Rng.create seed;
    events = Event.bus ();
  }

let now t = t.clock

let rng t = t.root_rng

let events t = t.events

let emit t ?(src = "") ev = Event.emit t.events ~at:t.clock ~src ev

let at t ~time action =
  let at = max time t.clock in
  let ev = { at; seq = t.next_seq; action; dead = false } in
  t.next_seq <- t.next_seq + 1;
  Heap.push t.queue ev;
  ev

let schedule t ~delay action = at t ~time:(t.clock + max 0 delay) action

let settle t action = Queue.add action t.settled

(* The closure goes at once, so whatever it captured is garbage before
   the event's time arrives. The dead slot stays queued until it is
   popped or, once dead slots outnumber live ones, one O(n) compaction
   drops them all; pop order of the rest is unchanged, as (at, seq) is a
   total order. *)
let cancel t ev =
  if not ev.dead then begin
    ev.dead <- true;
    ev.action <- ignore;
    t.dead_queued <- t.dead_queued + 1;
    if t.dead_queued > compact_floor && 2 * t.dead_queued > Heap.length t.queue then begin
      Heap.filter_inplace t.queue (fun ev -> not ev.dead);
      t.dead_queued <- 0
    end
  end

let pending t = Heap.length t.queue - t.dead_queued + Queue.length t.settled

let is_live ev = not ev.dead

(* A dead event neither runs nor moves the clock, so when a cancelled
   event leaves the queue never shows. A live one counts as dead from
   the moment it fires, so cancelling it from its own action, or later,
   does nothing. *)
let fire t ev =
  if ev.dead then t.dead_queued <- t.dead_queued - 1
  else begin
    t.clock <- ev.at;
    ev.dead <- true;
    ev.action ()
  end

(* A settled thunk runs once no event at the current instant is left,
   before the clock moves on. *)
let settling t =
  (not (Queue.is_empty t.settled)) && (Heap.is_empty t.queue || (Heap.top t.queue).at > t.clock)

let rec step t =
  if settling t then begin
    Queue.take t.settled ();
    true
  end
  else if Heap.is_empty t.queue then false
  else begin
    let ev = Heap.pop_exn t.queue in
    if ev.dead then begin
      t.dead_queued <- t.dead_queued - 1;
      step t
    end
    else begin
      fire t ev;
      true
    end
  end

(* The drain loop is the per-event hot path: one [pop_exn] per event, no
   option boxing, and the common no-limit case skips the bound check. *)
let run ?until t =
  (match until with
  | None ->
    while not (Heap.is_empty t.queue && Queue.is_empty t.settled) do
      if settling t then Queue.take t.settled () else fire t (Heap.pop_exn t.queue)
    done
  | Some limit ->
    let continue = ref true in
    while !continue do
      if settling t && t.clock <= limit then Queue.take t.settled ()
      else if Heap.is_empty t.queue || (Heap.top t.queue).at > limit then continue := false
      else fire t (Heap.pop_exn t.queue)
    done);
  match until with Some limit when limit > t.clock -> t.clock <- limit | _ -> ()
