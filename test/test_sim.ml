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

(* [filter_inplace] keeps heap order, and the slots it vacates hold the
   filler: a dropped element is collectable at once. *)
let test_heap_filter_inplace () =
  let filler = ref (-1) in
  let h = Heap.create_filled ~cmp:(fun a b -> compare !a !b) ~filler in
  let n = 20 in
  let watch = Weak.create n in
  let[@inline never] push_watched v =
    let x = ref v in
    Weak.set watch v (Some x);
    Heap.push h x
  in
  List.iter push_watched (List.init n (fun i -> (i * 7) mod n));
  Heap.filter_inplace h (fun x -> !x mod 2 = 0);
  check_int "half kept" (n / 2) (Heap.length h);
  Gc.full_major ();
  for v = 0 to n - 1 do
    check (Printf.sprintf "element %d reachable iff kept" v) (v mod 2 = 0) (Weak.check watch v)
  done;
  let rec drain acc = if Heap.is_empty h then List.rev acc else drain (!(Heap.pop_exn h) :: acc) in
  Alcotest.(check (list int))
    "kept ones pop in order" (List.init (n / 2) (fun i -> 2 * i)) (drain [])

let prop_heap_filter_inplace =
  QCheck.Test.make ~name:"filter_inplace then drain = sorted filter" ~count:200
    QCheck.(pair (list small_int) small_int)
    (fun (xs, m) ->
      let keep x = x mod (m + 2) <> 0 in
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      Heap.filter_inplace h keep;
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort compare (List.filter keep xs))

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

(* A cancelled event's closure is garbage before its time arrives, and
   the event neither fires nor moves the clock. *)
let test_sim_cancel_frees_closure () =
  let sim = Sim.create () in
  let watch = Weak.create 1 in
  let[@inline never] schedule_watched () =
    let payload = ref 0 in
    Weak.set watch 0 (Some payload);
    Sim.schedule sim ~delay:(Sim.sec 30) (fun () -> incr payload)
  in
  let h = schedule_watched () in
  Gc.full_major ();
  check "a queued closure keeps what it captured" true (Weak.check watch 0);
  Sim.cancel sim h;
  Gc.full_major ();
  check "collectable once cancelled" false (Weak.check watch 0);
  check_int "nothing pending" 0 (Sim.pending sim);
  Sim.cancel sim h;
  check_int "a second cancel changes nothing" 0 (Sim.pending sim);
  Sim.run sim;
  check_int "the clock did not move" 0 (Sim.now sim)

(* Random schedule/cancel/step/run sequences against a list model of the
   queue: the same events fire in the same order, a cancelled one never
   fires, and [pending] is the live count after every operation. The
   sequences cancel from inside actions (an action may cancel itself,
   which has already fired), cancel fired and cancelled events again, and
   cancel spans long enough to make the queue compact. *)
type sim_op =
  | Sched of int * int option  (* delay; the event whose handle the action cancels *)
  | Cancel of int
  | Cancel_span of int * int
  | Step
  | Run_until of int

(* the model's events, indexed by scheduling order (their seq) *)
type mev = { m_at : int; m_target : int; mutable m_live : bool }

let gen_sim_op =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map2
            (fun d t -> Sched (d, t))
            (int_bound 1_000)
            (frequency [ (4, return None); (1, map Option.some (int_bound 1_000)) ]) );
        (2, map (fun i -> Cancel i) (int_bound 1_000));
        (1, map2 (fun a l -> Cancel_span (a, l)) (int_bound 1_000) (int_bound 300));
        (1, return Step);
        (1, map (fun d -> Run_until d) (int_bound 30));
      ])

let show_sim_op = function
  | Sched (d, t) ->
    let cancels = match t with Some i -> Printf.sprintf " cancels %d" i | None -> "" in
    Printf.sprintf "sched %d%s" d cancels
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Cancel_span (a, l) -> Printf.sprintf "cancel %d+%d" a l
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run +%d" d

let prop_sim_matches_model =
  QCheck.Test.make ~name:"sim agrees with a list model under schedule and cancel" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_sim_op ops))
       QCheck.Gen.(list_size (int_range 0 500) gen_sim_op))
    (fun ops ->
      let sim = Sim.create () in
      let cap = List.length ops in
      let handles = Array.make cap (Sim.schedule sim ~delay:0 ignore) in
      Sim.run sim;
      let model = Array.make cap { m_at = 0; m_target = -1; m_live = false } in
      let n = ref 0 in
      let fired = ref [] and model_fired = ref [] in
      let clock = ref 0 in
      let count () = !n in
      let live = ref 0 in
      let model_cancel i =
        if i >= 0 && i < count () && model.(i).m_live then begin
          model.(i).m_live <- false;
          decr live
        end
      in
      (* the live event with the least (at, seq), fired in the model *)
      let model_step ~limit =
        let best = ref None in
        for i = 0 to count () - 1 do
          let e = model.(i) in
          if e.m_live && e.m_at <= limit then
            match !best with
            | Some j when model.(j).m_at <= e.m_at -> ()
            | _ -> best := Some i
        done;
        match !best with
        | None -> false
        | Some i ->
          let e = model.(i) in
          model_cancel i;
          clock := e.m_at;
          model_fired := i :: !model_fired;
          model_cancel e.m_target;
          true
      in
      let real_cancel i = if i >= 0 && i < count () then Sim.cancel sim handles.(i) in
      let apply = function
        | Sched (delay, target) ->
          let id = count () in
          (* resolved now; [id] itself means the action cancels its own event *)
          let target = match target with Some t -> t mod (id + 1) | None -> -1 in
          let h =
            Sim.schedule sim ~delay (fun () ->
                fired := id :: !fired;
                if target >= 0 then real_cancel target)
          in
          handles.(id) <- h;
          model.(id) <- { m_at = !clock + delay; m_target = target; m_live = true };
          incr n;
          incr live;
          true
        | Cancel i ->
          let i = if count () = 0 then 0 else i mod count () in
          real_cancel i;
          model_cancel i;
          true
        | Cancel_span (a, len) ->
          let a = if count () = 0 then 0 else a mod count () in
          for i = a to min (count () - 1) (a + len) do
            real_cancel i;
            model_cancel i
          done;
          true
        | Step -> Sim.step sim = model_step ~limit:max_int
        | Run_until d ->
          let limit = Sim.now sim + d in
          Sim.run ~until:limit sim;
          while model_step ~limit do () done;
          clock := max !clock limit;
          Sim.now sim = !clock
      in
      List.for_all
        (fun op ->
          apply op && Sim.pending sim = !live
          &&
          match (!fired, !model_fired) with
          | a :: _, b :: _ -> a = b
          | [], [] -> true
          | _ -> false)
        ops
      &&
      (Sim.run sim;
       while model_step ~limit:max_int do () done;
       !fired = !model_fired && Sim.pending sim = 0 && Sim.now sim = !clock))

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
    prop_heap_filter_inplace;
    prop_sim_matches_model;
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
          Alcotest.test_case "filter in place" `Quick test_heap_filter_inplace;
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
          Alcotest.test_case "cancel frees the closure" `Quick test_sim_cancel_frees_closure;
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
