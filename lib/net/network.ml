type config = {
  base_latency : Sim.time;
  jitter_mean : Sim.time;
  loss : float;
}

let default_config = { base_latency = Sim.ms 1; jitter_mean = 200; loss = 0.0 }

module String_pair = struct
  type t = string * string

  let compare = compare
end

module Pair_set = Set.Make (String_pair)

type t = {
  sim : Sim.t;
  mutable cfg : config;
  rng : Rng.t;
  nodes_tbl : (string, Node.t) Hashtbl.t;
  mutable cut_links : Pair_set.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let create ?(config = default_config) sim =
  {
    sim;
    cfg = config;
    rng = Rng.split (Sim.rng sim);
    nodes_tbl = Hashtbl.create 8;
    cut_links = Pair_set.empty;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let sim t = t.sim

let config t = t.cfg

let add_node t ~id =
  if Hashtbl.mem t.nodes_tbl id then invalid_arg ("Network.add_node: duplicate node " ^ id);
  let node = Node.create ~id in
  Hashtbl.replace t.nodes_tbl id node;
  node

let node t id = Hashtbl.find t.nodes_tbl id

let find_node t id = Hashtbl.find_opt t.nodes_tbl id

let link a b = if String.compare a b <= 0 then (a, b) else (b, a)

let partition_on t a b = t.cut_links <- Pair_set.add (link a b) t.cut_links

let partition_off t a b = t.cut_links <- Pair_set.remove (link a b) t.cut_links

let partitioned t a b = Pair_set.mem (link a b) t.cut_links

let latency t =
  t.cfg.base_latency + int_of_float (Rng.exponential t.rng (float_of_int t.cfg.jitter_mean))

let drop t = t.dropped <- t.dropped + 1

let deliver t ~src ~dst ~service ~body =
  match Hashtbl.find_opt t.nodes_tbl dst with
  | None -> drop t
  | Some target ->
    if (not (Node.up target)) || partitioned t src dst then drop t
    else begin
      match Node.handler target ~service with
      | None -> drop t
      | Some handler ->
        t.delivered <- t.delivered + 1;
        ignore (handler ~src body)
    end

let send t ~src ~dst ~service ~body =
  match Hashtbl.find_opt t.nodes_tbl src with
  | None -> invalid_arg ("Network.send: unknown source node " ^ src)
  | Some source ->
    if not (Node.up source) then drop t
    else begin
      t.sent <- t.sent + 1;
      if partitioned t src dst || Rng.bernoulli t.rng t.cfg.loss then drop t
      else begin
        let run_delivery () = deliver t ~src ~dst ~service ~body in
        ignore (Sim.schedule t.sim ~delay:(latency t) run_delivery)
      end
    end

let sent_total t = t.sent

let delivered_total t = t.delivered

let dropped_total t = t.dropped
