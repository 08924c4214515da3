type t = {
  rpc : Rpc.t;
  src : string;
  replicas : string list;  (* sorted *)
  max_steps : int;
  retry_delay : Sim.time;
  mutable leader : string option;
  mutable cursor : int;  (* round-robin fallback position *)
}

let create ~rpc ~src ~replicas ?(max_steps = 16) ?(retry_delay = Sim.ms 5) () =
  if replicas = [] then invalid_arg "Rlog_client.create: need at least one replica";
  {
    rpc;
    src;
    replicas = List.sort_uniq compare replicas;
    max_steps;
    retry_delay;
    leader = None;
    cursor = 0;
  }

let invalidate t = t.leader <- None

let sim t = Network.sim (Rpc.network t.rpc)

let nth_replica t i = List.nth t.replicas (i mod List.length t.replicas)

let target t = match t.leader with Some l -> l | None -> nth_replica t t.cursor

(* The connection-failure path: drop the cached leader if that is who
   just failed (a dead node must not be retried forever), and rotate to
   the next replica. *)
let failed_over t dead =
  if t.leader = Some dead then t.leader <- None;
  t.cursor <- t.cursor + 1;
  let next = nth_replica t t.cursor in
  if next = dead && List.length t.replicas > 1 then begin
    t.cursor <- t.cursor + 1;
    nth_replica t t.cursor
  end
  else next

let append t ~payload k =
  let rec go steps ~urgent dst =
    if steps >= t.max_steps then k (Error "rlog: no leader reachable")
    else
      Rpc.call t.rpc ~src:t.src ~dst ~service:Rlog.service_append
        ~body:(Wire.(run (b_pair b_bool b_string)) (urgent, payload))
        (function
          | Error _ -> go (steps + 1) ~urgent:true (failed_over t dst)
          | Ok reply -> (
            match Wire.(decode (d_pair d_string d_string)) reply with
            | exception Wire.Malformed m -> k (Error m)
            | "ok", r ->
              t.leader <- Some dst;
              k (Ok r)
            | "redirect", l ->
              t.leader <- Some l;
              (* a redirect that bounces back ("no, the leader is X",
                 where X just failed us) burns a step each time, so the
                 max_steps bound still holds when no leader is electable *)
              go (steps + 1) ~urgent:false l
            | ("electing" | "noleader" | "err"), _ ->
              t.leader <- None;
              t.cursor <- t.cursor + 1;
              ignore
                (Sim.schedule (sim t) ~delay:t.retry_delay (fun () ->
                     go (steps + 1) ~urgent:true (nth_replica t t.cursor)))
            | tag, _ -> k (Error ("rlog: unexpected reply " ^ tag))))
  in
  go 0 ~urgent:false (target t)

let read t ~service ~body k =
  let rec go steps dst =
    if steps >= t.max_steps then k (Error "rlog: no replica reachable")
    else
      Rpc.call t.rpc ~src:t.src ~dst ~service ~body (function
        | Ok reply -> k (Ok reply)
        | Error e ->
          if steps + 1 >= t.max_steps then k (Error ("rpc: " ^ e))
          else go (steps + 1) (failed_over t dst))
  in
  go 0 (target t)
