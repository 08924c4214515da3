type t =
  | Wf_launched of { iid : string; root : string }
  | Wf_concluded of { iid : string; status : string }
  | Wf_cancelled of { iid : string; reason : string }
  | Wf_relaunched of { iid : string }
  | Wf_reconfigured of { iid : string }
  | Wf_collected of { iid : string }
  | Scope_opened of { path : string }
  | Task_started of { path : string; attempt : int }
  | Task_dispatched of { path : string; code : string; host : string; attempt : int }
  | Task_retried of { path : string; attempt : int }
  | Task_auto_restarted of { path : string }
  | Task_marked of { path : string; mark : string }
  | Task_repeated of { path : string; output : string; attempt : int }
  | Task_completed of {
      path : string;
      output : string;
      aborted : bool;
      duration : int;
      scope : bool;
    }
  | Task_failed of { path : string; reason : string }
  | Impl_completed of { path : string; output : string }
  | Watchdog_fired of { path : string }
  | Timer_fired of { path : string; set : string }
  | Policy_retry of { path : string; attempt : int; delay_ms : int }
  | Policy_substituted of { path : string; code : string }
  | Policy_compensated of { path : string; task : string }
  | User_aborted of { path : string }
  | Recovery_replayed of { instances : int }
  | Recovery_error of { detail : string }
  | Txn_failed of { detail : string }
  | Txn_resolved of { txid : string; committed : bool }
  | Txn_one_phase of { txid : string }
  | Txn_readonly_elided of { txid : string; node : string }
  | Rpc_sent of { src : string; dst : string; service : string }
  | Rpc_retried of { src : string; dst : string; service : string }
  | Rpc_timed_out of { src : string; dst : string; service : string }
  | Rpc_reply_evicted of { node : string }
  | Rpc_loopback of { node : string; service : string }
  | Persist_batched of { requests : int; writes : int }
  | Cons_election_started of { node : string; term : int }
  | Cons_leader_elected of { node : string; term : int }
  | Cons_stepped_down of { node : string; term : int }
  | Cons_committed of { node : string; index : int; term : int }
  | Cons_caught_up of { node : string; upto : int }

let name = function
  | Wf_launched _ -> "wf-launched"
  | Wf_concluded _ -> "wf-concluded"
  | Wf_cancelled _ -> "wf-cancelled"
  | Wf_relaunched _ -> "wf-relaunched"
  | Wf_reconfigured _ -> "wf-reconfigured"
  | Wf_collected _ -> "wf-collected"
  | Scope_opened _ -> "scope-opened"
  | Task_started _ -> "task-started"
  | Task_dispatched _ -> "task-dispatched"
  | Task_retried _ -> "task-retried"
  | Task_auto_restarted _ -> "task-auto-restarted"
  | Task_marked _ -> "task-marked"
  | Task_repeated _ -> "task-repeated"
  | Task_completed _ -> "task-completed"
  | Task_failed _ -> "task-failed"
  | Impl_completed _ -> "impl-completed"
  | Watchdog_fired _ -> "watchdog-fired"
  | Timer_fired _ -> "timer-fired"
  | Policy_retry _ -> "policy-retry"
  | Policy_substituted _ -> "policy-substituted"
  | Policy_compensated _ -> "policy-compensated"
  | User_aborted _ -> "user-aborted"
  | Recovery_replayed _ -> "recovery-replayed"
  | Recovery_error _ -> "recovery-error"
  | Txn_failed _ -> "txn-failed"
  | Txn_resolved _ -> "txn-resolved"
  | Txn_one_phase _ -> "txn-one-phase"
  | Txn_readonly_elided _ -> "txn-readonly-elided"
  | Rpc_sent _ -> "rpc-sent"
  | Rpc_retried _ -> "rpc-retried"
  | Rpc_timed_out _ -> "rpc-timed-out"
  | Rpc_reply_evicted _ -> "rpc-reply-evicted"
  | Rpc_loopback _ -> "rpc-loopback"
  | Persist_batched _ -> "persist-batched"
  | Cons_election_started _ -> "cons-election-started"
  | Cons_leader_elected _ -> "cons-leader-elected"
  | Cons_stepped_down _ -> "cons-stepped-down"
  | Cons_committed _ -> "cons-committed"
  | Cons_caught_up _ -> "cons-caught-up"

let pp ppf ev =
  let i = string_of_int and b = string_of_bool in
  let fields =
    match ev with
    | Wf_launched { iid; root } -> [ ("iid", iid); ("root", root) ]
    | Wf_concluded { iid; status } -> [ ("iid", iid); ("status", status) ]
    | Wf_cancelled { iid; reason } -> [ ("iid", iid); ("reason", reason) ]
    | Wf_relaunched { iid } | Wf_reconfigured { iid } | Wf_collected { iid } -> [ ("iid", iid) ]
    | Scope_opened { path }
    | Task_auto_restarted { path }
    | Watchdog_fired { path }
    | User_aborted { path } ->
      [ ("path", path) ]
    | Task_started { path; attempt } | Task_retried { path; attempt } ->
      [ ("path", path); ("attempt", i attempt) ]
    | Task_dispatched { path; code; host; attempt } ->
      [ ("path", path); ("code", code); ("host", host); ("attempt", i attempt) ]
    | Task_marked { path; mark } -> [ ("path", path); ("mark", mark) ]
    | Task_repeated { path; output; attempt } ->
      [ ("path", path); ("output", output); ("attempt", i attempt) ]
    | Task_completed { path; output; aborted; duration; scope } ->
      [
        ("path", path);
        ("output", output);
        ("aborted", b aborted);
        ("duration", i duration);
        ("scope", b scope);
      ]
    | Task_failed { path; reason } -> [ ("path", path); ("reason", reason) ]
    | Impl_completed { path; output } -> [ ("path", path); ("output", output) ]
    | Timer_fired { path; set } -> [ ("path", path); ("set", set) ]
    | Policy_retry { path; attempt; delay_ms } ->
      [ ("path", path); ("attempt", i attempt); ("delay_ms", i delay_ms) ]
    | Policy_substituted { path; code } -> [ ("path", path); ("code", code) ]
    | Policy_compensated { path; task } -> [ ("path", path); ("task", task) ]
    | Recovery_replayed { instances } -> [ ("instances", i instances) ]
    | Recovery_error { detail } | Txn_failed { detail } -> [ ("detail", detail) ]
    | Txn_resolved { txid; committed } -> [ ("txid", txid); ("committed", b committed) ]
    | Txn_one_phase { txid } -> [ ("txid", txid) ]
    | Txn_readonly_elided { txid; node } -> [ ("txid", txid); ("node", node) ]
    | Rpc_sent { src; dst; service }
    | Rpc_retried { src; dst; service }
    | Rpc_timed_out { src; dst; service } ->
      [ ("src", src); ("dst", dst); ("service", service) ]
    | Rpc_reply_evicted { node } -> [ ("node", node) ]
    | Rpc_loopback { node; service } -> [ ("node", node); ("service", service) ]
    | Persist_batched { requests; writes } -> [ ("requests", i requests); ("writes", i writes) ]
    | Cons_election_started { node; term }
    | Cons_leader_elected { node; term }
    | Cons_stepped_down { node; term } ->
      [ ("node", node); ("term", i term) ]
    | Cons_committed { node; index; term } ->
      [ ("node", node); ("index", i index); ("term", i term) ]
    | Cons_caught_up { node; upto } -> [ ("node", node); ("upto", i upto) ]
  in
  Format.pp_print_string ppf (name ev);
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) fields

type subscriber = at:int -> src:string -> t -> unit

type bus = { mutable subscribers : subscriber list }

let bus () = { subscribers = [] }

let subscribe bus f = bus.subscribers <- bus.subscribers @ [ f ]

let emit bus ~at ~src ev = List.iter (fun f -> f ~at ~src ev) bus.subscribers
