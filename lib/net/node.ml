type handler = src:string -> string -> string

type t = {
  id : string;
  mutable incarnation : int;  (* even while up: crash and recover each add one *)
  services : (string, handler) Hashtbl.t;
  mutable crash_hooks : (unit -> unit) list;
  mutable recover_hooks : (unit -> unit) list;
}

let create ~id =
  { id; incarnation = 0; services = Hashtbl.create 8; crash_hooks = []; recover_hooks = [] }

let id t = t.id

let up t = t.incarnation land 1 = 0

let incarnation t = t.incarnation

let serve t ~service handler = Hashtbl.replace t.services service handler

let withdraw t ~service = Hashtbl.remove t.services service

let handler t ~service = Hashtbl.find_opt t.services service

let on_crash t hook = t.crash_hooks <- t.crash_hooks @ [ hook ]

let on_recover t hook = t.recover_hooks <- t.recover_hooks @ [ hook ]

let crash t =
  if up t then begin
    t.incarnation <- t.incarnation + 1;
    List.iter (fun hook -> hook ()) t.crash_hooks
  end

let recover t =
  if not (up t) then begin
    t.incarnation <- t.incarnation + 1;
    List.iter (fun hook -> hook ()) t.recover_hooks
  end
