type entry = { iid : string; seq : int; mirror : (Instate.t, string) result option }

(* [keys] is the instance's slice of the committed keys, in sorted
   order *)
let rebuild disp ~compile ~keys iid =
  let read key = Dispatch.committed_value disp ~key in
  let meta_key = Wstate.key iid Wstate.Meta in
  Fun.flip Option.map (read meta_key) @@ fun meta_raw ->
  let meta = Wstate.decode_value Wstate.Meta meta_raw in
  let script_text =
    match read (Wstate.key iid Wstate.Reconf) with Some s -> s | None -> meta.Wstate.m_script
  in
  match compile ~script:script_text ~root:meta.Wstate.m_root with
  | Error { Frontend.stage = "resolve"; msg; _ } -> Error (Printf.sprintf "%s: %s" iid msg)
  | Error _ -> Error (iid ^ ": stored script no longer parses")
  | Ok schema ->
    let inst =
      Instate.create ~iid ~script_text ~schema ~status:meta.Wstate.m_status
        ~external_inputs:meta.Wstate.m_inputs
    in
    (* [create] applied the meta row, decoded once above: it holds the
       whole script text *)
    Instate.load_committed inst ~read ~keys:(List.filter (fun k -> k <> meta_key) keys);
    Ok inst

let replay disp ~compile =
  (* one sorted key read serves the whole replay: the directory rows and
     each instance's rows are contiguous slices of it *)
  let keys = Dispatch.committed_key_array disp in
  Dispatch.key_slice keys ~prefix:Wstate.dir_prefix
  |> List.filter_map (fun key ->
         match (Wstate.dir_iid key, Dispatch.committed_value disp ~key) with
         | Some iid, Some raw -> Some (Wstate.decode_value Wstate.Dir raw, iid)
         | _ -> None)
  |> List.sort compare
  |> List.map (fun (seq, iid) ->
         let keys = Dispatch.key_slice keys ~prefix:(Wstate.task_prefix iid) in
         { iid; seq; mirror = rebuild disp ~compile ~keys iid })
