type row = {
  path : string;
  started : Sim.time;
  mutable finished : Sim.time option;
  mutable outcome : string;
  mutable marks : Sim.time list;
}

let render_rows ~width rows =
  match rows with
  | [] -> ""
  | rows ->
    let t0 = List.fold_left (fun acc r -> min acc r.started) max_int rows in
    let t1 =
      List.fold_left
        (fun acc r -> max acc (match r.finished with Some f -> f | None -> r.started))
        t0 rows
    in
    let span = max 1 (t1 - t0) in
    let col t = min (width - 1) ((t - t0) * (width - 1) / span) in
    let label_width =
      List.fold_left (fun acc r -> max acc (String.length r.path)) 0 rows
    in
    let buf = Buffer.create 1024 in
    let render_row r =
      let bar = Bytes.make width ' ' in
      let b = col r.started in
      let e = match r.finished with Some f -> col f | None -> width - 1 in
      for i = b to e do
        Bytes.set bar i '='
      done;
      Bytes.set bar b '|';
      if r.finished <> None then Bytes.set bar e '|';
      List.iter (fun m -> Bytes.set bar (col m) '*') r.marks;
      let timing =
        match r.finished with
        | Some f -> Printf.sprintf "%6d..%6d us  %s" r.started f r.outcome
        | None -> Printf.sprintf "%6d..        (running)" r.started
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s %s %s\n" label_width r.path (Bytes.to_string bar) timing)
    in
    List.iter render_row rows;
    Buffer.contents buf

let render ?(width = 60) events =
  let rows : (string, row) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let row_for path at =
    match Hashtbl.find_opt rows path with
    | Some r -> r
    | None ->
      let r = { path; started = at; finished = None; outcome = ""; marks = [] } in
      Hashtbl.replace rows path r;
      order := path :: !order;
      r
  in
  let visit (at, ev) =
    match ev with
    | Event.Task_started { path; _ } | Event.Scope_opened { path } -> ignore (row_for path at)
    | Event.Task_completed { path; output; _ } ->
      let r = row_for path at in
      r.finished <- Some at;
      r.outcome <- output
    | Event.Task_marked { path; _ } ->
      let r = row_for path at in
      r.marks <- at :: r.marks
    | _ -> ()
  in
  List.iter visit events;
  render_rows ~width (List.rev_map (Hashtbl.find rows) !order)
