(* The traced run's instruments, all outside the program: a Sim.step
   loop that times every step and charges it to the layer of the first
   bus event the step publishes, spans around the benchmark's own calls
   into layers, and GC phases read back from Runtime_events. The result
   is a per-layer share table and a Chrome trace-event file. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Individual spans are kept for this many steps (and as many bench
   and GC spans); everything after is aggregated only. *)
let kept_cap = 100_000

let layer_of (ev : Event.t) =
  match ev with
  | Persist_batched _ -> "dispatch"
  | Txn_failed _ | Txn_resolved _ | Txn_one_phase _ | Txn_readonly_elided _ -> "tx"
  | Rpc_sent _ | Rpc_retried _ | Rpc_timed_out _ | Rpc_reply_evicted _ | Rpc_loopback _ -> "net"
  | Cons_election_started _ | Cons_leader_elected _ | Cons_stepped_down _ | Cons_committed _
  | Cons_caught_up _ ->
    "consensus"
  | _ -> "engine"

let quiet = "sim.quiet"

let layers = [ "engine"; "dispatch"; "tx"; "net"; "consensus"; quiet ]

type agg = { mutable count : int; mutable ns : int }

type span = { s_name : string; s_tid : int; s_start : int; s_dur : int }

type t = {
  origin : int;
  by_layer : (string, agg) Hashtbl.t;
  by_span : (string, agg) Hashtbl.t;
  mutable step_layer : string;  (* "" until the current step publishes *)
  mutable steps : int;
  mutable loop_ns : int;
  mutable kept : span list;  (* newest first *)
  mutable kept_steps : int;
  mutable kept_spans : int;
  mutable gc_minor_ns : int;  (* since the tracer started *)
  mutable gc_major_ns : int;
  mutable loop_minor_ns : int;  (* inside the traced loop only *)
  mutable loop_major_ns : int;
  mutable gc_lost : int;
  mutable gc_depth : int;
  mutable gc_start : int;
  mutable gc_saw_minor : bool;
  mutable poll_gc : unit -> unit;
}

let bump tbl key ns =
  let a =
    match Hashtbl.find_opt tbl key with
    | Some a -> a
    | None ->
      let a = { count = 0; ns = 0 } in
      Hashtbl.replace tbl key a;
      a
  in
  a.count <- a.count + 1;
  a.ns <- a.ns + ns

let keep_span t s =
  if t.kept_spans < kept_cap then begin
    t.kept_spans <- t.kept_spans + 1;
    t.kept <- s :: t.kept
  end

let ts_ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

(* GC phases nest; only outermost spans are charged: to minor when a
   minor collection ran inside, to major otherwise. *)
let gc_begin t ts phase =
  if t.gc_depth = 0 then begin
    t.gc_start <- ts_ns ts;
    t.gc_saw_minor <- false
  end;
  if phase = Runtime_events.EV_MINOR then t.gc_saw_minor <- true;
  t.gc_depth <- t.gc_depth + 1

let gc_end t ts =
  if t.gc_depth > 0 then begin
    t.gc_depth <- t.gc_depth - 1;
    if t.gc_depth = 0 then begin
      let dur = ts_ns ts - t.gc_start in
      if t.gc_saw_minor then t.gc_minor_ns <- t.gc_minor_ns + dur
      else t.gc_major_ns <- t.gc_major_ns + dur;
      keep_span t
        {
          s_name = (if t.gc_saw_minor then "gc.minor" else "gc.major");
          s_tid = 3;
          s_start = t.gc_start;
          s_dur = dur;
        }
    end
  end

(* Starts the runtime's event ring (its file goes to the directory in
   OCAML_RUNTIME_EVENTS_DIR and is removed when the process exits) and
   drains it at the end of every major GC cycle, often enough that the
   ring never wraps, whoever drives the simulation. *)
let create () =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  (* drop whatever set-up published before the trace began *)
  ignore (Runtime_events.read_poll cursor (Runtime_events.Callbacks.create ()) None);
  let t =
    {
      origin = now_ns ();
      by_layer = Hashtbl.create 8;
      by_span = Hashtbl.create 8;
      step_layer = "";
      steps = 0;
      loop_ns = 0;
      kept = [];
      kept_steps = 0;
      kept_spans = 0;
      gc_minor_ns = 0;
      gc_major_ns = 0;
      loop_minor_ns = 0;
      loop_major_ns = 0;
      gc_lost = 0;
      gc_depth = 0;
      gc_start = 0;
      gc_saw_minor = false;
      poll_gc = ignore;
    }
  in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts phase -> gc_begin t ts phase)
      ~runtime_end:(fun _ ts _ -> gc_end t ts)
      ~lost_events:(fun _ n -> t.gc_lost <- t.gc_lost + n)
      ()
  in
  t.poll_gc <- (fun () -> ignore (Runtime_events.read_poll cursor callbacks None));
  ignore (Gc.create_alarm t.poll_gc);
  t

(* [span tr name f] times the benchmark's own call [f] into a layer. *)
let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let t0 = now_ns () in
    let r = f () in
    let dur = now_ns () - t0 in
    bump t.by_span name dur;
    keep_span t { s_name = name; s_tid = 2; s_start = t0; s_dur = dur };
    r

(* Times a traced region: its wall time counts as loop time, and so does
   the GC time spent inside it. The explorer owns its simulators, so its
   sweep is a region without steps. *)
let region t f =
  t.poll_gc ();
  let minor0 = t.gc_minor_ns and major0 = t.gc_major_ns and t0 = now_ns () in
  let r = f () in
  t.loop_ns <- t.loop_ns + (now_ns () - t0);
  t.poll_gc ();
  t.loop_minor_ns <- t.loop_minor_ns + (t.gc_minor_ns - minor0);
  t.loop_major_ns <- t.loop_major_ns + (t.gc_major_ns - major0);
  r

(* Drive [sim] one step at a time, as [Sim.run ?until] would: to drain,
   or through every event at or before [until] (a sentinel one
   microsecond past the horizon ends the loop). *)
let run_steps t sim ~until =
  Event.subscribe (Sim.events sim) (fun ~at:_ ~src:_ ev ->
      if String.length t.step_layer = 0 then t.step_layer <- layer_of ev);
  let stop = ref false in
  Option.iter (fun h -> ignore (Sim.at sim ~time:(h + 1) (fun () -> stop := true))) until;
  region t @@ fun () ->
  let continue = ref true in
  while !continue do
    t.step_layer <- "";
    let t0 = now_ns () in
    if Sim.step sim && not !stop then begin
      let dur = now_ns () - t0 in
      let layer = if String.length t.step_layer = 0 then quiet else t.step_layer in
      bump t.by_layer layer dur;
      t.steps <- t.steps + 1;
      if t.kept_steps < kept_cap then begin
        t.kept_steps <- t.kept_steps + 1;
        t.kept <- { s_name = layer; s_tid = 1; s_start = t0; s_dur = dur } :: t.kept
      end
    end
    else continue := false
  done

let span_mean_us t name =
  match Hashtbl.find_opt t.by_span name with
  | Some a when a.count > 0 -> float_of_int a.ns /. float_of_int a.count /. 1e3
  | _ -> 0.

let layer_ns t layer = match Hashtbl.find_opt t.by_layer layer with Some a -> a.ns | None -> 0

let steps t = t.steps

let loop_ns t = t.loop_ns

let loop_minor_ns t = t.loop_minor_ns

let loop_major_ns t = t.loop_major_ns

(* Self-time shares of the stepped time, per layer. *)
let shares t =
  let total = List.fold_left (fun acc l -> acc + layer_ns t l) 0 layers in
  List.map
    (fun l -> (l, if total = 0 then 0. else float_of_int (layer_ns t l) /. float_of_int total))
    layers

(* Chrome trace-event JSON: tid 1 = sim steps named by layer, tid 2 =
   bench calls, tid 3 = GC phases. Times in microseconds since the
   tracer started. *)
let write_chrome t ~file ~workload =
  let oc = open_out file in
  let us ns = float_of_int ns /. 1e3 in
  output_string oc "{\"traceEvents\":[\n";
  List.iter
    (fun (tid, name) ->
      Printf.fprintf oc
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%S}},\n"
        tid name)
    [ (1, "sim steps by layer"); (2, "bench calls"); (3, "gc") ];
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f},\n"
        s.s_name s.s_tid
        (us (s.s_start - t.origin))
        (us s.s_dur))
    (List.rev t.kept);
  Printf.fprintf oc
    "{\"name\":\"trace end\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":1,\"ts\":%.3f}\n],\n"
    (us (now_ns () - t.origin));
  Printf.fprintf oc
    "\"otherData\":{\"workload\":%S,\"steps\":%d,\"steps_with_spans\":%d,\"note\":\"every step \
     is aggregated in layer_ms; individual spans are kept for the first %d steps and the first \
     %d bench and GC spans only\",\"layer_ms\":{%s},\"gc_ms\":{\"minor\":%.3f,\"major\":%.3f},\
     \"gc_lost_events\":%d}}\n"
    workload t.steps t.kept_steps kept_cap kept_cap
    (String.concat ","
       (List.map (fun l -> Printf.sprintf "%S:%.3f" l (float_of_int (layer_ns t l) /. 1e6)) layers))
    (float_of_int t.gc_minor_ns /. 1e6)
    (float_of_int t.gc_major_ns /. 1e6)
    t.gc_lost;
  close_out oc
