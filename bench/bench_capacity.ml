(* Capacity bench: open-loop instance arrivals against a 4-engine
   cluster, sized from 1k/2k (CI smoke) through 10k/20k (default) to
   100k (--full), measuring:

   - dispatches/sec of real wall-clock across the whole run;
   - p99 task latency in virtual time (dispatch queueing included);
   - resident words per instance (Obj.reachable_words over the live
     mirrors), peak and end-of-run;
   - minor-heap words allocated per dispatch while the cluster runs.

   The workload is capacity-shaped: short chains (3 tasks, 1ms work
   each) arriving 10/ms, so per-instance launch/track/conclude overhead
   dominates. If that overhead grew with the number of instances seen
   so far (a rescan of every task, a whole-directory rewrite per launch,
   a compile per launch), the words allocated per dispatch would grow
   with the run's size. Allocation is deterministic, so the scaling
   gate compares two sizes of the same process exactly rather than a
   wall-clock ratio: words per dispatch at the largest size may exceed
   the smallest size's by at most 5%.

   Each timed run starts from Gc.compact () so results are independent
   of run order (a grown major heap makes later runs measurably
   faster). Writes BENCH_capacity.json (schema rdal-capacity/2) and
   exits non-zero if a hard gate fails: allocation per dispatch growing
   with size, residency above cap, an instance that never completed, or
   same-seed non-determinism. *)

let engines = [ "e1"; "e2"; "e3"; "e4" ]

let chain_tasks = 3

let work = Sim.ms 1

let dispatch_overhead = 50 (* µs of engine CPU per dispatch *)

let burst = 10 (* arrivals per burst; bursts 1ms apart = 10k launches/s *)

let burst_gap = Sim.ms 1

let engine_config =
  {
    Engine.default_config with
    dispatch_overhead;
    (* release concluded mirrors: resident memory bounded by the live
       instance count *)
    retain_concluded = false;
    (* rendering and retaining a human-readable trace line per event is
       measurement overhead, not scheduling cost *)
    trace = false;
  }

type stats = {
  s_wall : float;
  s_dispatches : int;
  s_dps : float;
  s_p99_us : int;
  s_peak_words : int;
  s_end_words : int;
  s_words_per_inst : float;
  s_words_per_dispatch : float;
  s_completed : int;
  s_assign_batches : int;
  s_counters : (string * int) list;
}

let pct sorted n p = if n = 0 then 0 else List.nth sorted (p * (n - 1) / 100)

let run ~instances =
  (* heap left over from a previous run changes GC pacing (a grown major
     heap makes later runs measurably faster); compact to a canonical
     state so sizes are comparable and order-independent *)
  Gc.compact ();
  let c = Cluster.make ~engine_config ~policy:Cluster.Hash_iid ~engines () in
  Workloads.register ~work (Cluster.registry c);
  let script, root = Workloads.chain ~n:chain_tasks in
  let sim = Cluster.sim c in
  let completed = ref 0 in
  let peak = ref 0 in
  let sample_residency () =
    let words =
      List.fold_left (fun acc (_, e) -> acc + Engine.observe_residency e) 0 (Cluster.engines c)
    in
    if words > !peak then peak := words;
    words
  in
  (* open-loop arrivals: bursts of [burst] every [burst_gap], so
     same-instant launches exercise the batched placement writes *)
  let bursts = (instances + burst - 1) / burst in
  for b = 0 to bursts - 1 do
    let in_burst = min burst (instances - (b * burst)) in
    ignore
      (Sim.schedule sim ~delay:(b * burst_gap) (fun () ->
           for _ = 1 to in_burst do
             match Cluster.launch c ~script ~root ~inputs:Workloads.seed_inputs with
             | Error e -> failwith ("bench_capacity: launch failed: " ^ e)
             | Ok (iid, _eid) -> Cluster.on_complete c iid (fun _ -> incr completed)
           done))
  done;
  (* residency sampled on a fixed virtual-time grid through the run *)
  let horizon = (bursts * burst_gap) + Sim.sec 2 in
  let rec arm_sampler at =
    if at <= horizon then
      ignore
        (Sim.at sim ~time:at (fun () ->
             ignore (sample_residency ());
             arm_sampler (at + Sim.ms 250)))
  in
  arm_sampler (Sim.ms 250);
  let words0 = Gc.minor_words () in
  let t0 = Sys.time () in
  Cluster.run c;
  let wall = Sys.time () -. t0 in
  let words = Gc.minor_words () -. words0 in
  let end_words = sample_residency () in
  let m = Cluster.metrics c in
  let dispatches = Metrics.value m "engine.dispatches" in
  let durations = Metrics.samples m "engine.task_duration_us" in
  let sorted = List.sort compare durations in
  {
    s_wall = wall;
    s_dispatches = dispatches;
    s_dps = (if wall > 0. then float_of_int dispatches /. wall else 0.);
    s_p99_us = pct sorted (List.length sorted) 99;
    s_peak_words = !peak;
    s_end_words = end_words;
    s_words_per_inst = float_of_int !peak /. float_of_int instances;
    s_words_per_dispatch = (if dispatches > 0 then words /. float_of_int dispatches else 0.);
    s_completed = !completed;
    s_assign_batches = Metrics.value m "cluster.assign_batches";
    s_counters = Metrics.counters m;
  }

let size_json n s =
  Printf.sprintf
    "    { \"instances\": %d, \"wall_s\": %.3f, \"dispatches\": %d, \"dispatches_per_sec\": %.0f, \
     \"p99_task_us\": %d, \"peak_resident_words\": %d, \"end_resident_words\": %d, \
     \"resident_words_per_instance\": %.1f, \"words_per_dispatch\": %.1f, \"completed\": %d, \
     \"assign_batches\": %d }"
    n s.s_wall s.s_dispatches s.s_dps s.s_p99_us s.s_peak_words s.s_end_words s.s_words_per_inst
    s.s_words_per_dispatch s.s_completed s.s_assign_batches

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let full = Array.exists (( = ) "--full") Sys.argv in
  let sizes =
    if smoke then [ 1_000; 2_000 ]
    else if full then [ 10_000; 20_000; 50_000; 100_000 ]
    else [ 10_000; 20_000 ]
  in
  let gate_size = List.hd sizes in
  Printf.printf "capacity bench: %d engines, chain of %d, bursts of %d per ms\n%!"
    (List.length engines) chain_tasks burst;
  let results =
    List.map
      (fun n ->
        Printf.printf "  %6d instances...%!" n;
        let s = run ~instances:n in
        Printf.printf " %.0f dispatches/s, p99 %dus, peak %.1f words/inst, %.1f words/dispatch\n%!"
          s.s_dps s.s_p99_us s.s_words_per_inst s.s_words_per_dispatch;
        (n, s))
      sizes
  in
  (* same-seed determinism: the smallest size re-run must reproduce the
     cluster-wide event counters exactly *)
  let base = run ~instances:gate_size in
  let again = run ~instances:gate_size in
  let deterministic = base.s_counters = again.s_counters in
  (* allocation scaling: per-dispatch cost must not grow with history *)
  let growth_max = 1.05 in
  let words_at (_, s) = s.s_words_per_dispatch in
  let growth =
    words_at (List.nth results (List.length results - 1)) /. words_at (List.hd results)
  in
  let words_cap = 3_000. in
  let max_words = List.fold_left (fun acc (_, s) -> max acc s.s_words_per_inst) 0. results in
  let all_completed = List.for_all (fun (n, s) -> s.s_completed = n) results in
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"rdal-capacity/2\",\n\
      \  \"engines\": %d,\n\
      \  \"workload\": { \"family\": \"chain\", \"tasks\": %d, \"work_ms\": %d, \"burst\": %d, \
       \"burst_gap_ms\": %d, \"dispatch_overhead_us\": %d },\n\
      \  \"sizes\": [\n%s\n  ],\n\
      \  \"gates\": { \"words_per_dispatch_growth\": %.4f, \
       \"words_per_dispatch_growth_max\": %.2f,\n\
      \             \"words_per_instance\": %.1f, \"words_per_instance_max\": %.0f, \
       \"all_completed\": %b, \"deterministic\": %b }\n\
       }\n"
      (List.length engines) chain_tasks (work / 1000) burst (burst_gap / 1000) dispatch_overhead
      (String.concat ",\n" (List.map (fun (n, s) -> size_json n s) results))
      growth growth_max max_words words_cap all_completed deterministic
  in
  let oc = open_out "BENCH_capacity.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "wrote BENCH_capacity.json (words/dispatch growth %.4fx, %.1f words/inst, deterministic %b)\n"
    growth max_words deterministic;
  let fail = ref false in
  let gate name ok detail =
    if not ok then begin
      fail := true;
      Printf.eprintf "GATE FAILED: %s (%s)\n" name detail
    end
  in
  gate "allocation scaling" (growth <= growth_max)
    (Printf.sprintf "words/dispatch grew %.4fx from %d to %d instances (max %.2fx)" growth
       gate_size (fst (List.nth results (List.length results - 1))) growth_max);
  gate "residency" (max_words <= words_cap)
    (Printf.sprintf "%.1f words/instance > %.0f" max_words words_cap);
  gate "completion" all_completed "an instance never reached a final status";
  gate "determinism" deterministic "same-seed counters diverged";
  if !fail then exit 1
