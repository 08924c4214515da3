(* Unit and property tests for the discrete-event kernel:
   heap ordering, RNG determinism, event scheduling semantics. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* --- Heap --- *)

let test_heap_orders_elements () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ] (drain [])

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  check "empty" true (Heap.is_empty h);
  check "pop none" true (Heap.pop h = None);
  check "peek none" true (Heap.peek h = None)

(* A popped element must not stay reachable from the heap: neither
   from the slot the pop vacated nor, once the heap is empty, from its
   first slot. Each element is a fresh block watched through a weak
   pointer, built and popped in a function of its own so that no local
   variable keeps it alive. *)
let test_heap_releases_popped () =
  let filler = ref (-1) in
  let h = Heap.create_filled ~cmp:(fun a b -> compare !a !b) ~filler in
  let watch = Weak.create 2 in
  let[@inline never] push_watched slot v =
    let x = ref v in
    Weak.set watch slot (Some x);
    Heap.push h x
  in
  let[@inline never] pop () = ignore (Sys.opaque_identity (Heap.pop_exn h)) in
  push_watched 0 1;
  push_watched 1 2;
  pop ();
  Gc.full_major ();
  check "popped from a non-empty heap" true (Weak.get watch 0 = None);
  check "the rest stays" true (Weak.get watch 1 <> None);
  pop ();
  Gc.full_major ();
  check "popped by the last pop" true (Weak.get watch 1 = None);
  check "empty" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

let prop_heap_length =
  QCheck.Test.make ~name:"heap length tracks pushes and pops" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let before = Heap.length h in
      ignore (Heap.pop h);
      before = List.length xs && Heap.length h = max 0 (before - 1))

(* pop_exn drains exactly like pop, without the option boxing *)
let prop_heap_pop_exn_sorts =
  QCheck.Test.make ~name:"pop_exn drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc
        else begin
          let top = Heap.top h in
          let x = Heap.pop_exn h in
          if top <> x then QCheck.Test.fail_report "top <> pop_exn";
          drain (x :: acc)
        end
      in
      drain [] = List.sort compare xs)

(* Interleaved pushes and pops: after any prefix of operations the heap
   agrees with a sorted-list model. Exercises the hole-based sifts from
   arbitrary intermediate shapes, not just build-then-drain. *)
let prop_heap_model =
  QCheck.Test.make ~name:"heap agrees with sorted-list model under interleaving" ~count:200
    QCheck.(list (option small_int))
    (fun ops ->
      let h = Heap.create ~cmp:compare in
      let model = ref [] in
      List.for_all
        (function
          | Some x ->
            Heap.push h x;
            model := List.sort compare (x :: !model);
            Heap.length h = List.length !model
          | None -> (
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some x, m :: rest ->
              model := rest;
              x = m
            | None, _ :: _ | Some _, [] -> false))
        ops)

(* Equal keys come out in insertion order under the simulator's
   (time, seq) comparator — the stability contract the event queue
   relies on, preserved across the allocation-free sift rewrite. *)
let prop_heap_stable_for_equal_keys =
  QCheck.Test.make ~name:"equal keys pop in insertion order" ~count:200
    QCheck.(list (int_bound 5))
    (fun keys ->
      let cmp (ka, sa) (kb, sb) = match compare ka kb with 0 -> compare sa sb | c -> c in
      let h = Heap.create ~cmp in
      List.iteri (fun seq k -> Heap.push h (k, seq)) keys;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      let out = drain [] in
      (* sorted by key, and within a key the seq values strictly increase *)
      let rec ok = function
        | (ka, sa) :: ((kb, sb) :: _ as rest) ->
          (ka < kb || (ka = kb && sa < sb)) && ok rest
        | [ _ ] | [] -> true
      in
      ok out)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  let take rng = List.init 20 (fun _ -> Rng.next_int64 rng) in
  check "same seed, same stream" true (take a = take b)

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let child = Rng.split a in
  check "child differs from parent" true (Rng.next_int64 a <> Rng.next_int64 child)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_float_in_bounds =
  QCheck.Test.make ~name:"Rng.float stays within bounds" ~count:500 QCheck.int64 (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng 3.0 in
      v >= 0.0 && v < 3.0)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 3L in
  check "p=0 never" true (not (List.exists Fun.id (List.init 50 (fun _ -> Rng.bernoulli rng 0.0))));
  check "p=1 always" true (List.for_all Fun.id (List.init 50 (fun _ -> Rng.bernoulli rng 1.0)))

let test_rng_shuffle_permutes () =
  let rng = Rng.create 11L in
  let xs = List.init 30 Fun.id in
  let ys = Rng.shuffle rng xs in
  check "same multiset" true (List.sort compare ys = xs)

(* --- Sim --- *)

let test_sim_runs_in_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.now sim) :: !log in
  ignore (Sim.schedule sim ~delay:30 (note "c"));
  ignore (Sim.schedule sim ~delay:10 (note "a"));
  ignore (Sim.schedule sim ~delay:20 (note "b"));
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "time order" [ ("a", 10); ("b", 20); ("c", 30) ] (List.rev !log)

let test_sim_fifo_at_equal_time () =
  let sim = Sim.create () in
  let log = ref [] in
  List.iter
    (fun tag -> ignore (Sim.schedule sim ~delay:5 (fun () -> log := tag :: !log)))
    [ "first"; "second"; "third" ];
  Sim.run sim;
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~delay:5 (fun () -> fired := true) in
  Sim.cancel sim h;
  Sim.run sim;
  check "cancelled event does not fire" false !fired

let test_sim_until_leaves_future_events () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.schedule sim ~delay:10 (fun () -> incr fired));
  ignore (Sim.schedule sim ~delay:100 (fun () -> incr fired));
  Sim.run ~until:50 sim;
  check_int "only the first fired" 1 !fired;
  check_int "clock advanced to the limit" 50 (Sim.now sim);
  Sim.run sim;
  check_int "second fires on resume" 2 !fired

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let times = ref [] in
  let record () = times := Sim.now sim :: !times in
  ignore
    (Sim.schedule sim ~delay:10 (fun () ->
         record ();
         ignore (Sim.schedule sim ~delay:10 record)));
  Sim.run sim;
  Alcotest.(check (list int)) "chained delays accumulate" [ 10; 20 ] (List.rev !times)

let test_sim_negative_delay_clamped () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:10 (fun () -> ()));
  Sim.run sim;
  let at = ref (-1) in
  ignore (Sim.schedule sim ~delay:(-5) (fun () -> at := Sim.now sim));
  Sim.run sim;
  check_int "fires at current time" 10 !at

let test_sim_step () =
  let sim = Sim.create () in
  let count = ref 0 in
  ignore (Sim.schedule sim ~delay:1 (fun () -> incr count));
  ignore (Sim.schedule sim ~delay:2 (fun () -> incr count));
  check "step consumes one event" true (Sim.step sim);
  check_int "one fired" 1 !count;
  check "second step" true (Sim.step sim);
  check "empty afterwards" false (Sim.step sim)

(* --- Event rendering --- *)

let test_event_pp () =
  let show ev = Format.asprintf "%a" Event.pp ev in
  Alcotest.(check string)
    "task completed"
    "task-completed path=diamond/t1 output=produced aborted=false duration=2000 scope=false"
    (show
       (Event.Task_completed
          {
            path = "diamond/t1";
            output = "produced";
            aborted = false;
            duration = 2000;
            scope = false;
          }));
  Alcotest.(check string)
    "lower-layer event" "rpc-sent src=n0 dst=n1 service=wf.exec"
    (show (Event.Rpc_sent { src = "n0"; dst = "n1"; service = "wf.exec" }))

(* --- Fault plans --- *)

let test_fault_plan_applies_in_order () =
  let sim = Sim.create () in
  let seen = ref [] in
  let plan =
    Fault.(crash_restart ~node:"a" ~at:10 ~down_for:5 @+ partition ~a:"a" ~b:"b" ~at:12 ~heal_after:4)
  in
  Fault.apply sim plan ~on:(fun action -> seen := (Sim.now sim, action) :: !seen);
  Sim.run sim;
  let expect =
    [
      (10, Fault.Crash "a");
      (12, Fault.Partition_on ("a", "b"));
      (15, Fault.Restart "a");
      (16, Fault.Partition_off ("a", "b"));
    ]
  in
  check "actions fire at planned times" true (List.rev !seen = expect)

let test_fault_periodic_count () =
  let plan = Fault.periodic_crashes ~node:"n" ~period:100 ~down_for:10 ~count:3 in
  check_int "two actions per cycle" 6 (List.length plan)

let test_fault_periodic_contents () =
  let plan = Fault.periodic_crashes ~node:"n" ~period:100 ~down_for:10 ~count:2 in
  check "k-th crash at k * period, restart down_for later" true
    (plan
    = [
        (100, Fault.Crash "n");
        (110, Fault.Restart "n");
        (200, Fault.Crash "n");
        (210, Fault.Restart "n");
      ])

let test_fault_empty_union () =
  let p = Fault.crash_restart ~node:"x" ~at:1 ~down_for:1 in
  check "empty is a left identity" true (Fault.(empty @+ p) = p);
  check "empty is a right identity" true (Fault.(p @+ empty) = p);
  let sim = Sim.create () in
  let fired = ref false in
  Fault.apply sim Fault.empty ~on:(fun _ -> fired := true);
  Sim.run sim;
  check "empty plan schedules nothing" false !fired

let qsuite = List.map QCheck_alcotest.to_alcotest
  [
    prop_heap_sorts;
    prop_heap_length;
    prop_heap_pop_exn_sorts;
    prop_heap_model;
    prop_heap_stable_for_equal_keys;
    prop_rng_int_in_bounds;
    prop_rng_float_in_bounds;
  ]

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "orders elements" `Quick test_heap_orders_elements;
          Alcotest.test_case "empty behaviour" `Quick test_heap_empty;
          Alcotest.test_case "releases popped elements" `Quick test_heap_releases_popped;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "time order" `Quick test_sim_runs_in_time_order;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_at_equal_time;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run until" `Quick test_sim_until_leaves_future_events;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_scheduling;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay_clamped;
          Alcotest.test_case "step" `Quick test_sim_step;
        ] );
      ("event", [ Alcotest.test_case "pp names every field" `Quick test_event_pp ]);
      ( "fault",
        [
          Alcotest.test_case "plan applies in order" `Quick test_fault_plan_applies_in_order;
          Alcotest.test_case "periodic count" `Quick test_fault_periodic_count;
          Alcotest.test_case "periodic contents" `Quick test_fault_periodic_contents;
          Alcotest.test_case "empty union" `Quick test_fault_empty_union;
        ] );
      ("properties", qsuite);
    ]
