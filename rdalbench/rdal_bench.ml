(* rdal_bench: one benchmark for the workflow stack.

   One benchmark run (the last line of stdout is a JSON result):
     rdal_bench.exe --workload NAME --seed N --seconds S --trace 0|1
   With --trace 0 it reports the end-to-end metrics over as many
   repetitions as fit in S seconds; with --trace 1 the per-layer metrics
   of one traced repetition plus the layer probes.

   Every workload, repetitions round-robin (writes BENCH_benchmark.json):
     rdal_bench.exe run [--seed N] [--reps R] [--smoke] [--trace]

   Every repetition runs in a fresh child process of this executable,
   so no run inherits another's heap. Correctness is checked in every
   run; a wrong answer makes the run exit non-zero, slowness never does. *)

(* How a run summarises its repetitions. The VM this was tuned on runs
   the same deterministic work up to 40 % slower for seconds at a time,
   and such spells only ever slow a repetition down, so throughput is the
   fastest repetition's; the rest are medians. *)
let fastest = List.fold_left Float.max Float.neg_infinity

let end_to_end =
  [
    ("setup_s", "s", Stats.median);
    ("ops_per_s", "1/s", fastest);
    ("peak_heap_mb", "MB", Stats.median);
  ]

let per_layer =
  [
    ("sim.events_per_op", "count"); ("sim.step_us", "us");
    ("share.engine", "ratio"); ("share.dispatch", "ratio"); ("share.tx", "ratio");
    ("share.net", "ratio"); ("share.consensus", "ratio"); ("share.sim_quiet", "ratio");
    ("trace.overhead", "ratio");
    ("virtual.latency_p50_ms", "ms"); ("virtual.latency_tail_ms", "ms");
    ("virtual.latency_tail_pct", "%"); ("virtual.latency_samples", "count");
    ("virtual.unavailable_ms", "ms");
    ("engine.dispatches_per_op", "count"); ("engine.launch_us", "us"); ("engine.gc_us", "us");
    ("engine.compact_ms", "ms"); ("engine.task_p99_ms", "ms"); ("engine.watchdog_per_op", "count");
    ("engine.retries_per_op", "count"); ("engine.recovery_ms", "ms");
    ("engine.recovery_wall_ms", "ms"); ("engine.metrics_words_per_op", "words");
    ("dispatch.batches_per_op", "count"); ("dispatch.writes_per_batch", "count");
    ("tx.one_phase_per_op", "count"); ("tx.two_phase_per_op", "count");
    ("tx.aborts_per_op", "count"); ("tx.ro_elided_per_op", "count");
    ("net.rpcs_per_op.wf", "count"); ("net.rpcs_per_op.tx", "count");
    ("net.rpcs_per_op.repo", "count"); ("net.rpcs_per_op.cons", "count");
    ("net.loopback_per_op", "count"); ("net.msgs_per_op", "count");
    ("net.rpc_retries_per_op", "count"); ("net.rpc_timeouts_per_op", "count");
    ("repo.placement_p99_ms", "ms"); ("repo.placements_missing_share", "ratio");
    ("repo.lookup_ok_share", "ratio"); ("repo.lookup_p99_ms", "ms");
    ("repo.store_words_per_op", "words");
    ("consensus.elections", "count"); ("consensus.elections_without_winner", "count");
    ("consensus.leaderless_ms", "ms"); ("consensus.final_term", "count");
    ("consensus.commits_per_op", "count");
    ("cluster.assign_batches_per_op", "count"); ("cluster.engine_skew", "ratio");
    ("explore.schedules", "count"); ("explore.points", "count"); ("explore.reference_ms", "ms");
    ("explore.schedule_ms.stock", "ms"); ("explore.schedule_ms.recovery", "ms");
    ("explore.schedule_ms.replication", "ms");
    ("gc.alloc_kw_per_op", "kw"); ("gc.promoted_kw_per_op", "kw");
    ("gc.live_kw_end_per_op", "kw"); ("gc.minor_ms", "ms"); ("gc.major_ms", "ms");
    ("gc.share", "ratio");
  ]
  @ List.concat_map
      (fun (probe, unit_) ->
        [ (Probes.metric_name probe unit_, unit_); ("probe.words." ^ probe, "words") ])
      Probes.names

(* --- child processes --- *)

type result = {
  values : (string * (string * bool * float)) list;  (* name -> unit, exact, value *)
  ops : int;
  failed : int;
  problems : string list;
}

let print_outcome (o : Suite.outcome) =
  Printf.printf "ops %d\nfailed %d\n" o.Suite.ops o.Suite.failed;
  List.iter
    (fun p -> Printf.printf "problem %s\n" (String.map (fun c -> if c = '\n' then ' ' else c) p))
    o.Suite.problems;
  List.iter
    (fun (m : Suite.metric) ->
      Printf.printf "metric %s %s %d %.17g\n" m.Suite.name m.Suite.unit_
        (Bool.to_int m.Suite.exact) m.Suite.value)
    o.Suite.metrics

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Median time of one construction of the workload's stack, repeated for
   a quarter of a second (and at least five times). Every repetition
   measures it after its run, so set-up is sampled across the whole
   benchmark run rather than in one moment a slow spell could own. *)
let setup_s (w : Suite.workload) ~seed =
  Gc.compact ();
  let started = Tracer.now_ns () in
  let rec loop acc n =
    if n >= 5 && Tracer.now_ns () - started > 250_000_000 then acc
    else begin
      let t0 = Tracer.now_ns () in
      w.Suite.setup ~seed;
      loop ((float_of_int (Tracer.now_ns () - t0) /. 1e9) :: acc) (n + 1)
    end
  in
  Stats.median (loop [] 0)

let child_rep (w : Suite.workload) ~seed ~traced =
  let tr = if traced then Some (Tracer.create ()) else None in
  let o = w.Suite.run ~seed tr in
  let peak = Suite.measured "peak_heap_mb" "MB" (peak_heap_mb ()) in
  let extra =
    match tr with
    | Some t ->
      let file = Printf.sprintf "BENCH_trace.%s.json" w.Suite.name in
      Tracer.write_chrome t ~file ~workload:w.Suite.name;
      [ peak ]
    | None -> [ peak; Suite.measured "setup_s" "s" (setup_s w ~seed) ]
  in
  print_outcome { o with Suite.metrics = o.Suite.metrics @ extra }

let child_probes ~smoke =
  print_outcome { Suite.ops = 1; failed = 0; problems = []; metrics = Probes.run ~smoke }

let parse_lines lines =
  let values = ref [] and ops = ref 0 and failed = ref 0 and problems = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "metric"; name; unit_; exact; value ] ->
        values := (name, (unit_, exact = "1", float_of_string value)) :: !values
      | [ "ops"; n ] -> ops := int_of_string n
      | [ "failed"; n ] -> failed := int_of_string n
      | "problem" :: words -> problems := String.concat " " words :: !problems
      | _ -> ())
    lines;
  { values = List.rev !values; ops = !ops; failed = !failed; problems = List.rev !problems }

(* Runtime_events rings of traced children go here, inside the working
   directory, and are removed when each child exits. *)
let events_dir () = Printf.sprintf ".rdalbench-events.%d" (Unix.getpid ())

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Runs this executable as [child KIND ...] and waits for it. *)
let spawn ~kind ~workload ~seed ~smoke =
  let args =
    [ Sys.executable_name; "child"; kind; "--workload"; workload; "--seed"; string_of_int seed ]
    @ if smoke then [ "--smoke" ] else []
  in
  let env =
    if kind <> "trace" then Unix.environment ()
    else begin
      let dir = events_dir () in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Array.append (Unix.environment ()) [| "OCAML_RUNTIME_EVENTS_DIR=" ^ dir |]
    end
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name (Array.of_list args) env Unix.stdin out_w
      Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let rec read acc =
    match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  if kind = "trace" then remove_tree (events_dir ());
  let r = parse_lines lines in
  match status with
  | Unix.WEXITED 0 -> r
  | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    let died = Printf.sprintf "%s child for %s exited with %d" kind workload n in
    { r with problems = r.problems @ [ died ] }

(* --- aggregation --- *)

let value r name = Option.map (fun (_, _, v) -> v) (List.assoc_opt name r.values)

(* The problems of every child, plus a check that virtual times and
   counts repeat exactly across [runs] (one workload and seed, traced or
   not); [others] contribute their problems only. *)
let problems ~runs ~others =
  let consistency =
    match runs with
    | [] -> []
    | first :: rest ->
      List.concat_map
        (fun r ->
          List.filter_map
            (fun (name, (_, exact, v)) ->
              match value r name with
              | Some v' when exact && v' <> v ->
                Some (Printf.sprintf "%s differs between runs: %.17g vs %.17g" name v v')
              | _ -> None)
            first.values)
        rest
  in
  List.concat_map (fun r -> r.problems) (runs @ others) @ consistency

let median_of runs name =
  match List.filter_map (fun r -> value r name) runs with [] -> 0. | vs -> Stats.median vs

(* The traced run's metrics, then the probes', and the tracing overhead:
   untraced [ops_per_s] over traced. *)
let layer_rows ~untraced ~traced ~probes =
  List.map
    (fun (name, unit_) ->
      let v =
        if name = "trace.overhead" then
          let t = median_of [ traced ] "ops_per_s" in
          if t = 0. then 0. else median_of untraced "ops_per_s" /. t
        else
          match value traced name with
          | Some v -> v
          | None -> Option.value ~default:0. (value probes name)
      in
      (name, unit_, v))
    per_layer

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_result ~correct ~attempted ~failed rows =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
          rows))

let print_rows rows =
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-36s %14.6g %s\n" name v unit_) rows

let sum f runs = List.fold_left (fun a r -> a + f r) 0 runs

(* --- one benchmark run --- *)

let find_workload ~smoke name =
  match List.find_opt (fun w -> w.Suite.name = name) (Suite.all ~smoke) with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %s\n" name;
    exit 2

let bench_run ~workload ~seed ~seconds ~trace =
  ignore (find_workload ~smoke:false workload);
  let child kind = spawn ~kind ~workload ~seed ~smoke:false in
  let finish ~runs ~others rows =
    let problems = problems ~runs ~others in
    List.iter (fun p -> Printf.printf "PROBLEM %s\n" p) problems;
    Printf.printf "%s seed %d\n" workload seed;
    print_rows rows;
    let correct = problems = [] in
    let attempted = sum (fun r -> r.ops) runs and failed = sum (fun r -> r.failed) runs in
    print_endline (json_result ~correct ~attempted ~failed rows);
    if not correct then exit 1
  in
  if trace then begin
    let untraced = child "rep" in
    let traced = child "trace" in
    let probes = child "probes" in
    finish ~runs:[ untraced; traced ] ~others:[ probes ]
      (layer_rows ~untraced:[ untraced ] ~traced ~probes)
  end
  else begin
    let started = Tracer.now_ns () in
    let rec reps acc =
      let acc = child "rep" :: acc in
      if Tracer.now_ns () - started >= seconds * 1_000_000_000 then List.rev acc else reps acc
    in
    let runs = reps [] in
    finish ~runs ~others:[]
      (List.map
         (fun (name, unit_, summary) ->
           (name, unit_, summary (List.filter_map (fun r -> value r name) runs)))
         end_to_end)
  end

(* --- every workload: the [run] command --- *)

let summary_json ~seed ~reps ~smoke results =
  let b = Buffer.create 8192 in
  let pf fmt = Printf.bprintf b fmt in
  let last i l = if i = List.length l - 1 then "" else "," in
  pf "{\n  \"schema\": \"rdal-benchmark/1\",\n  \"seed\": %d,\n  \"reps\": %d,\n  \"smoke\": %b,\n"
    seed reps smoke;
  pf "  \"workloads\": {\n";
  List.iteri
    (fun i (w, metrics, attempted, failed, problems) ->
      pf "    %S: {\n      \"attempted\": %d, \"failed\": %d, \"correct\": %b,\n" w attempted
        failed (problems = []);
      pf "      \"problems\": [%s],\n"
        (String.concat ", " (List.map (Printf.sprintf "%S") problems));
      pf "      \"metrics\": {\n";
      List.iteri
        (fun j (name, unit_, v, values) ->
          let q1, q3 = Stats.quartiles values in
          pf
            "        %S: {\"unit\": %S, \"value\": %s, \"median\": %s, \"q1\": %s, \"q3\": %s, \
             \"values\": [%s]}%s\n"
            name unit_ (json_number v)
            (json_number (Stats.median values))
            (json_number q1) (json_number q3)
            (String.concat ", " (List.map json_number values))
            (last j metrics))
        metrics;
      pf "      }\n    }%s\n" (last i results))
    results;
  pf "  }\n}\n";
  Buffer.contents b

let run_all ~seed ~reps ~smoke ~trace =
  let workloads = List.map (fun w -> w.Suite.name) (Suite.all ~smoke) in
  let child kind workload = spawn ~kind ~workload ~seed ~smoke in
  (* round-robin: a slow spell of the machine hits every workload *)
  let rounds = List.init reps (fun _ -> List.map (fun w -> (w, child "rep" w)) workloads) in
  let traced = if trace then List.map (fun w -> (w, child "trace" w)) workloads else [] in
  let probes = if trace then [ child "probes" (List.hd workloads) ] else [] in
  let results =
    List.map
      (fun w ->
        let runs = List.map (List.assoc w) rounds in
        let tr = Option.to_list (List.assoc_opt w traced) in
        let problems = problems ~runs:(runs @ tr) ~others:[] in
        let e2e =
          List.map
            (fun (name, unit_, summary) ->
              let vs = List.filter_map (fun r -> value r name) runs in
              (name, unit_, summary vs, vs))
            end_to_end
        in
        let layers =
          match (tr, probes) with
          | [ traced ], [ probes ] -> layer_rows ~untraced:runs ~traced ~probes
          | _ -> []
        in
        let attempted = sum (fun r -> r.ops) runs and failed = sum (fun r -> r.failed) runs in
        Printf.printf "\n== %s (attempted %d, failed %d)\n" w attempted failed;
        List.iter (fun p -> Printf.printf "  PROBLEM %s\n" p) problems;
        List.iter
          (fun (name, unit_, v, vs) ->
            let q1, q3 = Stats.quartiles vs in
            Printf.printf "  %-36s %14.6g %-6s [q1 %.6g, q3 %.6g, n=%d]\n" name v unit_ q1 q3
              (List.length vs))
          e2e;
        if layers <> [] then begin
          print_endline "  per layer (traced run and probes)";
          print_rows layers
        end;
        (w, e2e @ List.map (fun (n, u, v) -> (n, u, v, [ v ])) layers, attempted, failed, problems))
      workloads
  in
  let oc = open_out "BENCH_benchmark.json" in
  output_string oc (summary_json ~seed ~reps ~smoke results);
  close_out oc;
  print_endline "\nwrote BENCH_benchmark.json";
  List.iter (fun p -> List.iter (Printf.printf "PROBLEM %s\n") p.problems) probes;
  if List.exists (fun p -> p.problems <> []) probes
     || List.exists (fun (_, _, _, _, problems) -> problems <> []) results
  then exit 1

(* --- command line --- *)

let usage () =
  prerr_endline
    "usage: rdal_bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       rdal_bench.exe run [--seed N] [--reps R] [--smoke] [--trace]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* [flags] take no value; every other option does *)
  let rec opts ~flags acc = function
    | [] -> acc
    | flag :: rest when List.mem flag flags -> opts ~flags ((flag, "1") :: acc) rest
    | name :: v :: rest when String.starts_with ~prefix:"--" name ->
      opts ~flags ((name, v) :: acc) rest
    | _ -> usage ()
  in
  let int_opt o name default =
    match List.assoc_opt name o with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  match args with
  | "child" :: kind :: rest -> (
    let o = opts ~flags:[ "--smoke" ] [] rest in
    let smoke = List.mem_assoc "--smoke" o in
    let seed = int_opt o "--seed" 1 in
    let w () = find_workload ~smoke (Option.value ~default:"" (List.assoc_opt "--workload" o)) in
    match kind with
    | "rep" -> child_rep (w ()) ~seed ~traced:false
    | "trace" -> child_rep (w ()) ~seed ~traced:true
    | "probes" -> child_probes ~smoke
    | _ -> usage ())
  | "run" :: rest ->
    let o = opts ~flags:[ "--smoke"; "--trace" ] [] rest in
    let smoke = List.mem_assoc "--smoke" o in
    run_all ~seed:(int_opt o "--seed" 1)
      ~reps:(int_opt o "--reps" (if smoke then 1 else 5))
      ~smoke ~trace:(List.mem_assoc "--trace" o)
  | _ -> (
    let o = opts ~flags:[] [] args in
    match (List.assoc_opt "--workload" o, List.assoc_opt "--trace" o) with
    | Some workload, (None | Some ("0" | "1")) ->
      bench_run ~workload ~seed:(int_opt o "--seed" 1) ~seconds:(int_opt o "--seconds" 10)
        ~trace:(List.assoc_opt "--trace" o = Some "1")
    | _ -> usage ())
