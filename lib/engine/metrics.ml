type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, int list ref) Hashtbl.t;  (* samples, newest first *)
  event_names : (string, int ref) Hashtbl.t;  (* Event.name -> "events."-prefixed counter *)
}

let create () =
  {
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 8;
    event_names = Hashtbl.create 16;
  }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let observe t name v =
  match Hashtbl.find_opt t.histograms name with
  | Some samples -> samples := v :: !samples
  | None -> Hashtbl.replace t.histograms name (ref [ v ])

let value t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let samples t name =
  match Hashtbl.find_opt t.histograms name with
  | Some samples -> List.rev !samples
  | None -> []

(* Engine-level counters keep their own stable names (they back the
   [Engine.*_total] accessors); every event additionally bumps a generic
   [events.<tag>] counter so new event types are visible without code.

   The [events.<tag>] counter ref is memoized per registry: [Event.name]
   returns a small fixed set of static strings, so the table stays tiny
   and the per-event string concatenation plus counters-table probe
   disappear from the hot path. Registries are engine-scoped (never
   shared across domains), so the plain Hashtbl needs no lock. *)
let event_counter t name =
  match Hashtbl.find_opt t.event_names name with
  | Some r -> r
  | None ->
    let full = "events." ^ name in
    let r =
      match Hashtbl.find_opt t.counters full with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.replace t.counters full r;
        r
    in
    Hashtbl.replace t.event_names name r;
    r

let record t ev =
  let c = event_counter t (Event.name ev) in
  c := !c + 1;
  match ev with
  | Event.Task_dispatched _ -> incr t "engine.dispatches"
  | Event.Impl_completed _ -> incr t "engine.completions"
  | Event.Task_retried _ -> incr t "engine.system_retries"
  | Event.Policy_retry _ -> incr t "engine.policy_retries"
  | Event.Policy_substituted _ -> incr t "engine.policy_substitutions"
  | Event.Policy_compensated _ -> incr t "engine.policy_compensations"
  | Event.Task_marked _ -> incr t "engine.marks"
  | Event.Wf_reconfigured _ -> incr t "engine.reconfigs"
  | Event.Recovery_replayed _ -> incr t "engine.recoveries"
  | Event.Rpc_reply_evicted _ -> incr t "rpc.reply_evictions"
  | Event.Rpc_loopback _ -> incr t "rpc.loopback"
  | Event.Txn_one_phase _ -> incr t "txn.one_phase"
  | Event.Txn_readonly_elided _ -> incr t "txn.readonly_elided"
  | Event.Persist_batched _ -> incr t "engine.persist_batched"
  | Event.Task_completed { duration; scope; _ } ->
    observe t (if scope then "engine.scope_duration_us" else "engine.task_duration_us") duration
  | _ -> ()

let attach ?src t bus =
  Event.subscribe bus (fun ~at:_ ~src:from ev ->
      match src with
      | Some only when only <> from -> ()
      | Some _ | None -> record t ev)

(* Cluster aggregation: the same stream keyed per source, so one
   registry holds [cluster.<engine>.<counter>] for every engine plus the
   unlabelled totals. A source's five names are built once. *)
type labels = {
  dispatches : string;
  completions : string;
  launches : string;
  concluded : string;
  recoveries : string;
}

let labels_of src =
  let name counter = String.concat "" [ "cluster."; src; "."; counter ] in
  {
    dispatches = name "dispatches";
    completions = name "completions";
    launches = name "launches";
    concluded = name "concluded";
    recoveries = name "recoveries";
  }

let attach_labelled t bus =
  let by_src = Hashtbl.create 8 in
  let labels src =
    match Hashtbl.find_opt by_src src with
    | Some l -> l
    | None ->
      let l = labels_of src in
      Hashtbl.replace by_src src l;
      l
  in
  Event.subscribe bus (fun ~at:_ ~src ev ->
      record t ev;
      if src <> "" then
        match ev with
        | Event.Task_dispatched _ -> incr t (labels src).dispatches
        | Event.Impl_completed _ -> incr t (labels src).completions
        | Event.Wf_launched _ -> incr t (labels src).launches
        | Event.Wf_concluded _ -> incr t (labels src).concluded
        | Event.Recovery_replayed _ -> incr t (labels src).recoveries
        | _ -> ())
