(* Tests for the stable-storage layer: WAL semantics and the
   crash-recoverable key/value store. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str_opt = Alcotest.(check (option string))

(* --- Wal --- *)

let test_wal_append_order () =
  let wal = Wal.create ~name:"w" in
  List.iter (Wal.append wal) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (Wal.records wal);
  check_int "length" 3 (Wal.length wal)

let test_wal_rewrite () =
  let wal = Wal.create ~name:"w" in
  List.iter (Wal.append wal) [ 1; 2; 3; 4 ];
  Wal.rewrite wal [ 9 ];
  Alcotest.(check (list int)) "compacted" [ 9 ] (Wal.records wal);
  check_int "appended_total survives rewrite" 4 (Wal.appended_total wal)

let test_wal_rewrite_crash_atomic () =
  (* rewrite's contract: readers observe the full old contents or the
     full new contents, never a mix — in particular, between a
     compaction and the next append the log is exactly the compacted
     list, and appends extend that list rather than resurrecting any
     pre-compaction record *)
  let wal = Wal.create ~name:"w" in
  List.iter (Wal.append wal) [ 10; 20; 30; 40 ];
  let old_only = [ 10; 30 ] in
  (* records dropped by compaction *)
  Wal.rewrite wal [ 20; 40 ];
  Alcotest.(check (list int)) "exactly the new contents" [ 20; 40 ] (Wal.records wal);
  check "no stale record leaks through" true
    (List.for_all (fun r -> not (List.mem r old_only)) (Wal.records wal));
  check_int "length tracks the rewrite" 2 (Wal.length wal);
  Wal.append wal 50;
  Alcotest.(check (list int))
    "next append extends the compacted log" [ 20; 40; 50 ] (Wal.records wal);
  check_int "lifetime count keeps the pre-compaction appends" 5 (Wal.appended_total wal);
  (* a Kvstore checkpoint rides on rewrite: crash right after it (before
     any further append) must recover the compacted state exactly *)
  let s = Kvstore.create ~name:"s" in
  List.iter (fun (k, v) -> Kvstore.put s k v) [ ("a", "1"); ("b", "2"); ("a", "3") ];
  Kvstore.checkpoint s;
  let wal_after_ckpt = Kvstore.wal_length s in
  Kvstore.crash s;
  Kvstore.recover s;
  check_str_opt "newest value, not the overwritten one" (Some "3") (Kvstore.get s "a");
  check_str_opt "other key intact" (Some "2") (Kvstore.get s "b");
  check_int "recovered from the compacted log, not a mix" wal_after_ckpt
    (Kvstore.wal_length s)

(* --- Kvstore --- *)

let test_kv_basic () =
  let s = Kvstore.create ~name:"s" in
  Kvstore.put s "a" "1";
  Kvstore.put s "b" "2";
  Kvstore.put s "a" "3";
  check_str_opt "overwrite" (Some "3") (Kvstore.get s "a");
  check_str_opt "other key" (Some "2") (Kvstore.get s "b");
  check_str_opt "missing" None (Kvstore.get s "zz");
  check "mem" true (Kvstore.mem s "a");
  Kvstore.delete s "a";
  check "deleted" false (Kvstore.mem s "a");
  Alcotest.(check (list string)) "keys sorted" [ "b" ] (Kvstore.keys s)

let test_kv_delete_missing_writes_nothing () =
  let s = Kvstore.create ~name:"s" in
  Kvstore.put s "a" "1";
  let before = Kvstore.writes_total s in
  Kvstore.delete s "nope";
  check_int "no stable write for missing delete" before (Kvstore.writes_total s)

let test_kv_crash_recover () =
  let s = Kvstore.create ~name:"s" in
  Kvstore.put s "a" "1";
  Kvstore.put s "b" "2";
  Kvstore.delete s "a";
  Kvstore.crash s;
  check "unavailable while down" true
    (match Kvstore.get s "b" with
    | exception Kvstore.Unavailable _ -> true
    | _ -> false);
  Kvstore.recover s;
  check_str_opt "survives crash" (Some "2") (Kvstore.get s "b");
  check_str_opt "delete survives crash" None (Kvstore.get s "a");
  check_int "one replay" 1 (Kvstore.replays_total s)

let test_kv_checkpoint_preserves_content () =
  let s = Kvstore.create ~name:"s" in
  for i = 0 to 49 do
    Kvstore.put s (Printf.sprintf "k%02d" i) (string_of_int i)
  done;
  Kvstore.delete s "k07";
  let wal_before = Kvstore.wal_length s in
  Kvstore.checkpoint s;
  check "wal shrank" true (Kvstore.wal_length s < wal_before);
  Kvstore.crash s;
  Kvstore.recover s;
  check_str_opt "content after checkpoint+crash" (Some "13") (Kvstore.get s "k13");
  check_str_opt "delete preserved" None (Kvstore.get s "k07");
  check_int "49 keys" 49 (List.length (Kvstore.keys s))

let test_kv_fold_sorted () =
  let s = Kvstore.create ~name:"s" in
  List.iter (fun (k, v) -> Kvstore.put s k v) [ ("c", "3"); ("a", "1"); ("b", "2") ];
  let collected = Kvstore.fold s ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
  Alcotest.(check (list (pair string string)))
    "sorted key order" [ ("a", "1"); ("b", "2"); ("c", "3") ] (List.rev collected)

(* Property: a random workload with a crash/recover in the middle agrees
   with a pure Map model. *)

type op = Put of string * string | Del of string | Crash_recover

let op_gen =
  let open QCheck.Gen in
  let key = map (Printf.sprintf "k%d") (int_bound 8) in
  frequency
    [
      (6, map2 (fun k v -> Put (k, string_of_int v)) key small_int);
      (2, map (fun k -> Del k) key);
      (1, return Crash_recover);
    ]

let op_print = function
  | Put (k, v) -> Printf.sprintf "put %s=%s" k v
  | Del k -> Printf.sprintf "del %s" k
  | Crash_recover -> "crash/recover"

let prop_kv_matches_model =
  let arb = QCheck.make ~print:QCheck.Print.(list op_print) (QCheck.Gen.list_size (QCheck.Gen.int_range 0 60) op_gen) in
  QCheck.Test.make ~name:"kvstore agrees with a Map model across crashes" ~count:200 arb
    (fun ops ->
      let module M = Map.Make (String) in
      let store = Kvstore.create ~name:"model-test" in
      let apply model = function
        | Put (k, v) ->
          Kvstore.put store k v;
          M.add k v model
        | Del k ->
          Kvstore.delete store k;
          M.remove k model
        | Crash_recover ->
          Kvstore.crash store;
          Kvstore.recover store;
          model
      in
      let model = List.fold_left apply M.empty ops in
      let store_bindings = Kvstore.fold store ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
      List.rev store_bindings = M.bindings model)

(* Property: random puts, deletes, crashes, recoveries and checkpoints
   against a Map model. After every step a live store reads exactly the
   model, a down store refuses writes and checkpoints, and the log stays
   within the bound [kvstore.mli] states. Whenever a write compacts the
   log by itself, the node crashes and recovers straight away, so the
   fresh snapshot alone must rebuild the state. The key space varies by
   case, so both the floor and the twice-live rule decide. *)

type step = S_put of string * string | S_del of string | S_crash | S_recover | S_checkpoint

let step_print = function
  | S_put (k, v) -> Printf.sprintf "put %s=%s" k v
  | S_del k -> Printf.sprintf "del %s" k
  | S_crash -> "crash"
  | S_recover -> "recover"
  | S_checkpoint -> "checkpoint"

let steps_gen =
  let open QCheck.Gen in
  let* keyspace = int_range 4 80 in
  let key = map (Printf.sprintf "k%d") (int_bound keyspace) in
  list_size (int_range 0 500)
    (frequency
       [
         (12, map2 (fun k v -> S_put (k, string_of_int v)) key small_int);
         (5, map (fun k -> S_del k) key);
         (1, return S_crash);
         (2, return S_recover);
         (1, return S_checkpoint);
       ])

let prop_kv_bounded_log =
  let arb = QCheck.make ~print:QCheck.Print.(list step_print) steps_gen in
  QCheck.Test.make ~name:"kvstore log stays bounded and agrees with a Map model" ~count:200 arb
    (fun steps ->
      let module M = Map.Make (String) in
      let store = Kvstore.create ~name:"bound-test" in
      let refused f =
        match f () with () -> false | exception Kvstore.Unavailable _ -> true
      in
      let write model f next =
        if not (Kvstore.available store) then begin
          if not (refused f) then QCheck.Test.fail_report "a down store took a write";
          model
        end
        else begin
          let before = Kvstore.wal_length store in
          f ();
          if Kvstore.wal_length store <= before then begin
            (* compacted by itself (or, for a missing key, wrote
               nothing): crash on the log as it stands *)
            Kvstore.crash store;
            Kvstore.recover store
          end;
          next
        end
      in
      let apply model = function
        | S_put (k, v) -> write model (fun () -> Kvstore.put store k v) (M.add k v model)
        | S_del k -> write model (fun () -> Kvstore.delete store k) (M.remove k model)
        | S_crash ->
          Kvstore.crash store;
          model
        | S_recover ->
          Kvstore.recover store;
          model
        | S_checkpoint ->
          if Kvstore.available store then Kvstore.checkpoint store
          else if not (refused (fun () -> Kvstore.checkpoint store)) then
            QCheck.Test.fail_report "a down store took a checkpoint";
          model
      in
      let check_step model step =
        let model = apply model step in
        let bound = max 64 (2 * M.cardinal model) in
        if Kvstore.wal_length store > bound then
          QCheck.Test.fail_reportf "after %s: %d records, bound %d" (step_print step)
            (Kvstore.wal_length store) bound;
        if Kvstore.available store then begin
          let bindings = Kvstore.fold store ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
          if List.rev bindings <> M.bindings model then
            QCheck.Test.fail_reportf "after %s: the cache disagrees with the model"
              (step_print step)
        end;
        model
      in
      ignore (List.fold_left check_step M.empty steps);
      true)

(* The log is what kept a deleted key's value alive: once a compaction
   drops its records, a full major collection frees it. *)
let test_kv_compaction_frees_deleted_values () =
  let s = Kvstore.create ~name:"s" in
  let put_dead () =
    let value = String.make 64 'x' in
    Kvstore.put s "dead" value;
    let w = Weak.create 1 in
    Weak.set w 0 (Some value);
    w
  in
  let w = put_dead () in
  Kvstore.delete s "dead";
  Gc.full_major ();
  check "the log still holds the deleted value" true (Weak.check w 0);
  let rec churn i =
    let before = Kvstore.wal_length s in
    Kvstore.put s "live" (string_of_int i);
    if Kvstore.wal_length s > before && i < 1_000 then churn (i + 1)
  in
  churn 0;
  check_int "compacted to one snapshot" 1 (Kvstore.wal_length s);
  Gc.full_major ();
  check "freed after compaction" false (Weak.check w 0);
  check_str_opt "deleted key stays deleted" None (Kvstore.get s "dead");
  Kvstore.crash s;
  Kvstore.recover s;
  check_str_opt "deleted key stays deleted after recovery" None (Kvstore.get s "dead");
  check "live key survives" true (Kvstore.mem s "live")

(* A hash table never shrinks, and a compaction walks all of it: a store
   whose bindings fell far below their peak rebuilds its cache at the
   live size, keeping every binding, so its compactions cost O(live)
   again. *)
let test_kv_compaction_shrinks_cache () =
  let s = Kvstore.create ~name:"s" in
  let key i = Printf.sprintf "k%05d" i in
  for i = 0 to 19_999 do
    Kvstore.put s (key i) (string_of_int i)
  done;
  let full = Obj.reachable_words (Obj.repr s) in
  for i = 10 to 19_999 do
    Kvstore.delete s (key i)
  done;
  check "compacted by the deletes" true (Kvstore.wal_length s <= 64);
  let shrunk = Obj.reachable_words (Obj.repr s) in
  check (Printf.sprintf "%d words at 10 keys, %d at 20,000" shrunk full) true (shrunk * 50 < full);
  let expected = List.init 10 key in
  Alcotest.(check (list string)) "the live keys" expected (Kvstore.keys s);
  check_str_opt "a value" (Some "7") (Kvstore.get s (key 7));
  Kvstore.crash s;
  Kvstore.recover s;
  Alcotest.(check (list string)) "the live keys after recovery" expected (Kvstore.keys s)

(* Property: the prefix read is the filter of the full sorted read. The
   key sets mix directory rows ([wf:dir:]), instance rows, and ids where
   one is a prefix of another ([wf-1], [wf-10]), so a prefix can end in
   the middle of a longer id. *)
let prefix_key_gen =
  let open QCheck.Gen in
  let iid = map (Printf.sprintf "wf-%d") (oneofl [ 1; 10; 100; 2; 21 ]) in
  let suffix = oneofl [ "meta"; "reconf"; "h:000000001"; "t:a/b"; "c:a"; "" ] in
  oneof
    [
      map (fun i -> "wf:dir:" ^ i) iid;
      map2 (fun i s -> Printf.sprintf "wf:%s:%s" i s) iid suffix;
      oneofl [ ""; "w"; "wf"; "wf:"; "x" ];
    ]

let prefix_gen =
  let open QCheck.Gen in
  oneof
    [
      oneofl [ ""; "wf:"; "wf:dir:"; "wf:wf-1"; "wf:wf-1:"; "wf:wf-10:"; "wf:wf-1:h:"; "zz" ];
      prefix_key_gen;
    ]

let prop_keys_with_prefix =
  let arb =
    QCheck.make
      ~print:QCheck.Print.(pair (list string) string)
      QCheck.Gen.(pair (list_size (int_range 0 40) prefix_key_gen) prefix_gen)
  in
  QCheck.Test.make ~name:"keys_with_prefix = filter of keys" ~count:500 arb (fun (keys, prefix) ->
      let store = Kvstore.create ~name:"prefix-test" in
      List.iter (fun k -> Kvstore.put store k "v") keys;
      Kvstore.keys_with_prefix store ~prefix
      = List.filter (String.starts_with ~prefix) (Kvstore.keys store))

let test_keys_with_prefix_cases () =
  let s = Kvstore.create ~name:"s" in
  List.iter
    (fun k -> Kvstore.put s k "v")
    [ "wf:wf-10:meta"; "wf:dir:wf-1"; "wf:wf-1:meta"; "wf:wf-1:h:2"; "wf:wf-1:h:1"; "wf" ];
  Alcotest.(check (list string))
    "only wf-1's rows, sorted" [ "wf:wf-1:h:1"; "wf:wf-1:h:2"; "wf:wf-1:meta" ]
    (Kvstore.keys_with_prefix s ~prefix:"wf:wf-1:");
  Alcotest.(check (list string))
    "the directory" [ "wf:dir:wf-1" ]
    (Kvstore.keys_with_prefix s ~prefix:"wf:dir:");
  Alcotest.(check (list string))
    "a prefix longer than some keys" [] (Kvstore.keys_with_prefix s ~prefix:"wf:wf-100:");
  Kvstore.crash s;
  check "unavailable when down" true
    (match Kvstore.keys_with_prefix s ~prefix:"" with
    | _ -> false
    | exception Kvstore.Unavailable _ -> true)

(* The prefix test allocates nothing per key: reading a slice that
   matches nothing costs the same few words at any store size. *)
let test_keys_with_prefix_allocation () =
  let words_at n =
    let s = Kvstore.create ~name:"s" in
    for i = 1 to n do
      Kvstore.put s (Printf.sprintf "wf:wf-%d:meta" i) "v"
    done;
    ignore (Kvstore.keys_with_prefix s ~prefix:"wf:absent:");
    let w0 = Gc.minor_words () in
    ignore (Kvstore.keys_with_prefix s ~prefix:"wf:absent:");
    Gc.minor_words () -. w0
  in
  let small = words_at 10 and large = words_at 20_000 in
  check (Printf.sprintf "%.0f words at 20,000 keys, %.0f at 10" large small) true
    (large <= small +. 16.)

let () =
  Alcotest.run "store"
    [
      ( "wal",
        [
          Alcotest.test_case "append order" `Quick test_wal_append_order;
          Alcotest.test_case "rewrite" `Quick test_wal_rewrite;
          Alcotest.test_case "rewrite crash atomicity" `Quick test_wal_rewrite_crash_atomic;
        ] );
      ( "kvstore",
        [
          Alcotest.test_case "basic ops" `Quick test_kv_basic;
          Alcotest.test_case "delete missing" `Quick test_kv_delete_missing_writes_nothing;
          Alcotest.test_case "crash/recover" `Quick test_kv_crash_recover;
          Alcotest.test_case "checkpoint" `Quick test_kv_checkpoint_preserves_content;
          Alcotest.test_case "fold sorted" `Quick test_kv_fold_sorted;
          Alcotest.test_case "keys with prefix" `Quick test_keys_with_prefix_cases;
          Alcotest.test_case "prefix read allocation" `Quick test_keys_with_prefix_allocation;
          Alcotest.test_case "compaction frees deleted values" `Quick
            test_kv_compaction_frees_deleted_values;
          Alcotest.test_case "compaction shrinks the cache" `Quick
            test_kv_compaction_shrinks_cache;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_kv_matches_model;
          QCheck_alcotest.to_alcotest prop_kv_bounded_log;
          QCheck_alcotest.to_alcotest prop_keys_with_prefix;
        ] );
    ]
